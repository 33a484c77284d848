//! Data-level operator specifications.
//!
//! [`OpSpec`] is what the visual editor produces when the user drops an
//! operation on the canvas and fills in its conditions: a pure-data
//! description that can be validated against input schemas, serialised into
//! DSN documents, and instantiated into a runtime [`Operator`]. Keeping
//! specification and execution separate is what lets the dataflow layer
//! check "that can be soundly translated" *before* anything runs (paper §3).

use crate::aggregate::{AggFunc, AggregateOp};
use crate::cull::{CullSpaceOp, CullTimeOp};
use crate::error::OpError;
use crate::filter::FilterOp;
use crate::join::JoinOp;
use crate::transform::TransformOp;
use crate::trigger::{TriggerDirection, TriggerMode, TriggerOp};
use crate::virtual_prop::VirtualPropertyOp;
use crate::Operator;
use sl_stt::{BoundingBox, Duration, SchemaRef, TimeInterval};
use std::fmt;

/// A declarative description of one Table-1 operation instance.
#[derive(Debug, Clone, PartialEq)]
pub enum OpSpec {
    /// `σ(s, cond)`.
    Filter {
        /// The condition source text.
        condition: String,
    },
    /// `▷trans s` — simultaneous attribute assignments.
    Transform {
        /// `(attribute, expression)` pairs.
        assignments: Vec<(String, String)>,
    },
    /// `⊎s⟨p, spec⟩`.
    VirtualProperty {
        /// New attribute name.
        property: String,
        /// Specification expression.
        spec: String,
    },
    /// `γr(s, <t1, t2>)`.
    CullTime {
        /// Targeted interval.
        interval: TimeInterval,
        /// Reducing rate.
        rate: u64,
    },
    /// `γr(s, <coord1, coord2>)`.
    CullSpace {
        /// Targeted area.
        area: BoundingBox,
        /// Reducing rate.
        rate: u64,
    },
    /// `@t,{a1..an} op (s)`.
    Aggregate {
        /// The tick period `t`.
        period: Duration,
        /// Grouping attributes.
        group_by: Vec<String>,
        /// Aggregation function.
        func: AggFunc,
        /// Aggregated attribute (None only for COUNT).
        attr: Option<String>,
        /// When set, aggregate over the last `span` of tuple time (sliding
        /// window retained across ticks) instead of everything-since-last-tick.
        sliding: Option<Duration>,
    },
    /// `s1 ⋈t_pred s2`.
    Join {
        /// The tick period `t`.
        period: Duration,
        /// Join predicate over the join schema.
        predicate: String,
    },
    /// `⊕ON,t(s, {s1..sn}, cond)`.
    TriggerOn {
        /// The tick period `t`.
        period: Duration,
        /// Condition over the observed stream.
        condition: String,
        /// Source names to activate.
        targets: Vec<String>,
    },
    /// `⊕OFF,t(s, {s1..sn}, cond)`.
    TriggerOff {
        /// The tick period `t`.
        period: Duration,
        /// Condition over the observed stream.
        condition: String,
        /// Source names to deactivate.
        targets: Vec<String>,
    },
}

impl OpSpec {
    /// Short kind name, matching [`Operator::kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            OpSpec::Filter { .. } => "filter",
            OpSpec::Transform { .. } => "transform",
            OpSpec::VirtualProperty { .. } => "virtual_property",
            OpSpec::CullTime { .. } => "cull_time",
            OpSpec::CullSpace { .. } => "cull_space",
            OpSpec::Aggregate { .. } => "aggregate",
            OpSpec::Join { .. } => "join",
            OpSpec::TriggerOn { .. } => "trigger_on",
            OpSpec::TriggerOff { .. } => "trigger_off",
        }
    }

    /// Number of input streams the operation consumes.
    pub fn input_ports(&self) -> usize {
        match self {
            OpSpec::Join { .. } => 2,
            _ => 1,
        }
    }

    /// True for the blocking operations of Table 1.
    pub fn is_blocking(&self) -> bool {
        self.period().is_some()
    }

    /// The tick period of a blocking operation.
    pub fn period(&self) -> Option<Duration> {
        match self {
            OpSpec::Aggregate { period, .. }
            | OpSpec::Join { period, .. }
            | OpSpec::TriggerOn { period, .. }
            | OpSpec::TriggerOff { period, .. } => Some(*period),
            _ => None,
        }
    }

    /// True when the runtime operator can be replicated across shard
    /// workers ([`Operator::is_shardable`]): stateless per-tuple
    /// operations. Cull counts tuples and is order-sensitive; blocking
    /// operations own windowed state and stay single-owner.
    pub fn is_shardable(&self) -> bool {
        matches!(
            self,
            OpSpec::Filter { .. } | OpSpec::Transform { .. } | OpSpec::VirtualProperty { .. }
        )
    }

    /// True when the operation's output depends on input *arrival order*,
    /// not just input contents: the cull decimation counter keeps every
    /// r-th matching tuple, so reordering the stream changes which tuples
    /// survive.
    pub fn is_order_sensitive(&self) -> bool {
        matches!(self, OpSpec::CullTime { .. } | OpSpec::CullSpace { .. })
    }

    /// True when the runtime operator persists window state through
    /// [`Operator::checkpoint`]: exactly the blocking operations.
    pub fn checkpointable(&self) -> bool {
        self.is_blocking()
    }

    /// Trigger target source names, if this is a trigger.
    pub fn trigger_targets(&self) -> Option<&[String]> {
        match self {
            OpSpec::TriggerOn { targets, .. } | OpSpec::TriggerOff { targets, .. } => Some(targets),
            _ => None,
        }
    }

    /// Instantiate the runtime operator against the given input schemas
    /// (one per port). Validates everything the runtime constructor
    /// validates — this is the workhorse of dataflow validation.
    pub fn instantiate(&self, inputs: &[SchemaRef]) -> Result<Box<dyn Operator>, OpError> {
        let want = self.input_ports();
        if inputs.len() != want {
            return Err(OpError::BadSpec(format!(
                "`{}` takes {want} input stream(s), got {}",
                self.kind(),
                inputs.len()
            )));
        }
        Ok(match self {
            OpSpec::Filter { condition } => Box::new(FilterOp::new(condition, &inputs[0])?),
            OpSpec::Transform { assignments } => {
                let pairs: Vec<(&str, &str)> = assignments
                    .iter()
                    .map(|(a, e)| (a.as_str(), e.as_str()))
                    .collect();
                Box::new(TransformOp::new(&pairs, &inputs[0])?)
            }
            OpSpec::VirtualProperty { property, spec } => {
                Box::new(VirtualPropertyOp::new(property, spec, &inputs[0])?)
            }
            OpSpec::CullTime { interval, rate } => {
                Box::new(CullTimeOp::new(*interval, *rate, &inputs[0])?)
            }
            OpSpec::CullSpace { area, rate } => {
                Box::new(CullSpaceOp::new(*area, *rate, &inputs[0])?)
            }
            OpSpec::Aggregate {
                period,
                group_by,
                func,
                attr,
                sliding,
            } => {
                let groups: Vec<&str> = group_by.iter().map(String::as_str).collect();
                match sliding {
                    Some(span) => Box::new(AggregateOp::sliding(
                        *period,
                        *span,
                        &groups,
                        *func,
                        attr.as_deref(),
                        &inputs[0],
                    )?),
                    None => Box::new(AggregateOp::new(
                        *period,
                        &groups,
                        *func,
                        attr.as_deref(),
                        &inputs[0],
                    )?),
                }
            }
            OpSpec::Join { period, predicate } => {
                Box::new(JoinOp::new(*period, predicate, &inputs[0], &inputs[1])?)
            }
            OpSpec::TriggerOn {
                period,
                condition,
                targets,
            } => {
                let t: Vec<&str> = targets.iter().map(String::as_str).collect();
                Box::new(TriggerOp::new(
                    TriggerDirection::On,
                    *period,
                    condition,
                    TriggerMode::Any,
                    &t,
                    &inputs[0],
                )?)
            }
            OpSpec::TriggerOff {
                period,
                condition,
                targets,
            } => {
                let t: Vec<&str> = targets.iter().map(String::as_str).collect();
                Box::new(TriggerOp::new(
                    TriggerDirection::Off,
                    *period,
                    condition,
                    TriggerMode::Any,
                    &t,
                    &inputs[0],
                )?)
            }
        })
    }

    /// Output schema for the given input schemas, without building the
    /// runtime operator state. (Implemented *by* building the operator —
    /// constructors are cheap — which guarantees spec/runtime agreement.)
    pub fn output_schema(&self, inputs: &[SchemaRef]) -> Result<SchemaRef, OpError> {
        Ok(self.instantiate(inputs)?.output_schema())
    }
}

impl fmt::Display for OpSpec {
    /// Table-1-style rendering, used in dataflow listings and DSN comments.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpSpec::Filter { condition } => write!(f, "σ(s, {condition})"),
            OpSpec::Transform { assignments } => {
                write!(f, "▷[")?;
                for (i, (a, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{a} := {e}")?;
                }
                write!(f, "]s")
            }
            OpSpec::VirtualProperty { property, spec } => write!(f, "⊎s⟨{property}, {spec}⟩"),
            OpSpec::CullTime { interval, rate } => write!(f, "γ{rate}(s, {interval})"),
            OpSpec::CullSpace { area, rate } => write!(f, "γ{rate}(s, {area})"),
            OpSpec::Aggregate {
                period,
                group_by,
                func,
                attr,
                sliding,
            } => {
                write!(f, "@{period}")?;
                if let Some(span) = sliding {
                    write!(f, "~{span}")?;
                }
                write!(f, ",{{{}}} {func}", group_by.join(","))?;
                if let Some(a) = attr {
                    write!(f, "({a})")?;
                }
                Ok(())
            }
            OpSpec::Join { period, predicate } => write!(f, "s1 ⋈[{period}, {predicate}] s2"),
            OpSpec::TriggerOn {
                period,
                condition,
                targets,
            } => {
                write!(f, "⊕ON,{period}(s, {{{}}}, {condition})", targets.join(","))
            }
            OpSpec::TriggerOff {
                period,
                condition,
                targets,
            } => {
                write!(
                    f,
                    "⊕OFF,{period}(s, {{{}}}, {condition})",
                    targets.join(",")
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::OpContext;
    use sl_stt::{AttrType, Field, GeoPoint, Schema, Timestamp};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("humidity", AttrType::Float),
        ])
        .unwrap()
        .into_ref()
    }

    fn all_unary_specs() -> Vec<OpSpec> {
        vec![
            OpSpec::Filter {
                condition: "temperature > 25".into(),
            },
            OpSpec::Transform {
                assignments: vec![("temperature".into(), "temperature * 2".into())],
            },
            OpSpec::VirtualProperty {
                property: "at".into(),
                spec: "apparent_temperature(temperature, humidity)".into(),
            },
            OpSpec::CullTime {
                interval: TimeInterval::new(Timestamp::from_secs(0), Timestamp::from_secs(100)),
                rate: 2,
            },
            OpSpec::CullSpace {
                area: BoundingBox::from_corners(
                    GeoPoint::new_unchecked(34.0, 135.0),
                    GeoPoint::new_unchecked(35.0, 136.0),
                ),
                rate: 2,
            },
            OpSpec::Aggregate {
                period: Duration::from_secs(60),
                group_by: vec![],
                func: AggFunc::Avg,
                attr: Some("temperature".into()),
                sliding: None,
            },
            OpSpec::TriggerOn {
                period: Duration::from_secs(60),
                condition: "temperature > 25".into(),
                targets: vec!["rain".into()],
            },
            OpSpec::TriggerOff {
                period: Duration::from_secs(60),
                condition: "temperature < 20".into(),
                targets: vec!["rain".into()],
            },
        ]
    }

    #[test]
    fn every_spec_instantiates_and_reports_schema() {
        for spec in all_unary_specs() {
            let op = spec.instantiate(&[schema()]).unwrap();
            assert_eq!(op.kind(), spec.kind());
            assert_eq!(op.is_blocking(), spec.is_blocking());
            assert_eq!(op.timer_period(), spec.period());
            let s = spec.output_schema(&[schema()]).unwrap();
            assert_eq!(s, op.output_schema());
        }
        let join = OpSpec::Join {
            period: Duration::from_secs(10),
            predicate: "temperature = right_temperature".into(),
        };
        assert_eq!(join.input_ports(), 2);
        assert!(join.instantiate(&[schema(), schema()]).is_ok());
        assert!(join.instantiate(&[schema()]).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let filter = OpSpec::Filter {
            condition: "temperature > 0".into(),
        };
        assert!(filter.instantiate(&[schema(), schema()]).is_err());
        let join = OpSpec::Join {
            period: Duration::from_secs(1),
            predicate: "true".into(),
        };
        assert!(join.instantiate(&[schema()]).is_err());
    }

    #[test]
    fn invalid_inner_specs_propagate() {
        let bad = OpSpec::Filter {
            condition: "missing > 0".into(),
        };
        assert!(bad.output_schema(&[schema()]).is_err());
        let bad = OpSpec::Aggregate {
            period: Duration::ZERO,
            group_by: vec![],
            func: AggFunc::Count,
            attr: None,
            sliding: None,
        };
        assert!(bad.instantiate(&[schema()]).is_err());
    }

    #[test]
    fn blocking_classification_matches_table_1() {
        // Table 1: non-blocking = filter, cull-time/space, transform,
        // virtual property; blocking = aggregation, trigger, join.
        let blocking: Vec<bool> = all_unary_specs().iter().map(OpSpec::is_blocking).collect();
        assert_eq!(
            blocking,
            vec![false, false, false, false, false, true, true, true]
        );
        assert!(OpSpec::Join {
            period: Duration::from_secs(1),
            predicate: "true".into()
        }
        .is_blocking());
    }

    #[test]
    fn capability_introspection_matches_runtime() {
        // The static capability accessors must agree with what the
        // instantiated operator actually implements.
        let mut specs = all_unary_specs();
        specs.push(OpSpec::Join {
            period: Duration::from_secs(10),
            predicate: "temperature = right_temperature".into(),
        });
        for spec in specs {
            let inputs = vec![schema(); spec.input_ports()];
            let mut op = spec.instantiate(&inputs).unwrap();
            assert_eq!(
                spec.is_shardable(),
                op.is_shardable(),
                "shardable mismatch for {}",
                spec.kind()
            );
            assert_eq!(
                spec.checkpointable(),
                op.checkpoint().is_some(),
                "checkpoint mismatch for {}",
                spec.kind()
            );
            // Blocking ⇔ checkpointable, snapshot and log alike: what lets
            // the engine read the capability off `is_blocking`.
            assert_eq!(spec.checkpointable(), op.is_blocking());
            assert_eq!(spec.checkpointable(), op.checkpoint_delta().is_some());
            // Order sensitivity is exactly the non-shardable, non-blocking
            // middle ground: the cull decimation counters.
            assert_eq!(
                spec.is_order_sensitive(),
                !spec.is_shardable() && !spec.is_blocking(),
                "order-sensitivity mismatch for {}",
                spec.kind()
            );
        }
    }

    #[test]
    fn trigger_targets_accessor() {
        let spec = OpSpec::TriggerOn {
            period: Duration::from_secs(1),
            condition: "temperature > 0".into(),
            targets: vec!["a".into(), "b".into()],
        };
        assert_eq!(spec.trigger_targets().unwrap().len(), 2);
        assert!(OpSpec::Filter {
            condition: "x".into()
        }
        .trigger_targets()
        .is_none());
    }

    #[test]
    fn display_is_table_1_like() {
        let spec = OpSpec::Aggregate {
            period: Duration::from_secs(60),
            group_by: vec!["station".into()],
            func: AggFunc::Avg,
            attr: Some("temperature".into()),
            sliding: None,
        };
        let s = spec.to_string();
        assert!(s.contains('@') && s.contains("avg") && s.contains("station"));
        let spec = OpSpec::Filter {
            condition: "t > 1".into(),
        };
        assert_eq!(spec.to_string(), "σ(s, t > 1)");
    }

    #[test]
    fn instantiated_operator_works_end_to_end() {
        let spec = OpSpec::VirtualProperty {
            property: "at".into(),
            spec: "apparent_temperature(temperature, humidity)".into(),
        };
        let mut op = spec.instantiate(&[schema()]).unwrap();
        let tuple = sl_stt::Tuple::new(
            schema(),
            vec![sl_stt::Value::Float(30.0), sl_stt::Value::Float(70.0)],
            sl_stt::SttMeta::without_location(
                Timestamp::from_secs(0),
                sl_stt::Theme::unclassified(),
                sl_stt::SensorId(0),
            ),
        )
        .unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        op.on_tuple(0, tuple, &mut ctx).unwrap();
        assert_eq!(ctx.emitted().len(), 1);
        assert!(ctx.emitted()[0].get("at").is_ok());
    }
}
