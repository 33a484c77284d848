//! Aggregation — `@t,{a1..an} op (s)`: "Every t time intervals, aggregate s
//! on the attributes {a1, ..., an} and apply the aggregation function
//! op ∈ {COUNT, AVG, SUM, MIN, MAX}" (Table 1). Blocking.
//!
//! Tuples are cached in a tumbling window; every `t` the cache is grouped by
//! the grouping attributes and `op` is applied to the aggregated attribute
//! within each group. One output tuple per non-empty group is emitted,
//! stamped at the window boundary.

use crate::checkpoint::{CheckpointDelta, OpCheckpoint};
use crate::context::OpContext;
use crate::error::OpError;
use crate::window::{SlidingWindow, TumblingCache};
use crate::Operator;
use sl_stt::{AttrType, Duration, Field, Schema, SchemaRef, SttMeta, Timestamp, Tuple, Value};
use std::collections::BTreeMap;
use std::fmt;

/// The five aggregation functions of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of tuples in the group.
    Count,
    /// Arithmetic mean of the aggregated attribute.
    Avg,
    /// Sum of the aggregated attribute.
    Sum,
    /// Minimum by total value order.
    Min,
    /// Maximum by total value order.
    Max,
}

impl AggFunc {
    /// All functions.
    pub const ALL: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Avg,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
    ];

    /// Lower-case name (`count`, `avg`, ...).
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Avg => "avg",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Parse a function name (case-insensitive).
    pub fn parse(s: &str) -> Result<AggFunc, OpError> {
        match s.trim().to_ascii_lowercase().as_str() {
            "count" => Ok(AggFunc::Count),
            "avg" | "mean" => Ok(AggFunc::Avg),
            "sum" => Ok(AggFunc::Sum),
            "min" => Ok(AggFunc::Min),
            "max" => Ok(AggFunc::Max),
            other => Err(OpError::BadSpec(format!(
                "unknown aggregation function `{other}`"
            ))),
        }
    }

    /// Result type given the aggregated attribute's type.
    pub fn result_type(self, input: AttrType) -> AttrType {
        match self {
            AggFunc::Count => AttrType::Int,
            AggFunc::Avg => AttrType::Float,
            AggFunc::Sum => {
                if input == AttrType::Int {
                    AttrType::Int
                } else {
                    AttrType::Float
                }
            }
            AggFunc::Min | AggFunc::Max => input,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Hashable group key: the rendered group-by values. (Values are not `Eq`
/// because of floats; rendering gives a stable, total key.)
fn group_key(tuple: &Tuple, indices: &[usize]) -> String {
    let mut key = String::new();
    for i in indices {
        key.push_str(&format!("{:?}|", tuple.get_at(*i)));
    }
    key
}

/// The window discipline of an Aggregation.
#[derive(Debug)]
enum AggCache {
    /// Everything since the last tick (cleared on tick).
    Tumbling(TumblingCache),
    /// The last `span` of tuple time (retained across ticks) — the
    /// scenario's "temperature identified in the last hour", evaluated
    /// every `t` even when `t < span`.
    Sliding(SlidingWindow),
}

/// The Aggregation operator.
#[derive(Debug)]
pub struct AggregateOp {
    period: Duration,
    group_by: Vec<String>,
    group_idx: Vec<usize>,
    func: AggFunc,
    agg_attr: Option<String>,
    agg_idx: Option<usize>,
    cache: AggCache,
    out_schema: SchemaRef,
}

impl AggregateOp {
    /// Build an aggregation.
    ///
    /// * `period` — the `t` of `@t`: how often the cache is processed,
    /// * `group_by` — the grouping attributes `{a1..an}` (may be empty: one
    ///   global group),
    /// * `func` — the aggregation function,
    /// * `agg_attr` — the attribute aggregated; required for everything but
    ///   COUNT.
    ///
    /// Output schema: the group-by attributes followed by one result
    /// attribute named `{func}_{attr}` (or `count` for COUNT without attr).
    pub fn new(
        period: Duration,
        group_by: &[&str],
        func: AggFunc,
        agg_attr: Option<&str>,
        input_schema: &SchemaRef,
    ) -> Result<AggregateOp, OpError> {
        if period.is_zero() {
            return Err(OpError::BadSpec(
                "aggregation period must be positive".into(),
            ));
        }
        let mut group_idx = Vec::with_capacity(group_by.len());
        let mut out_fields = Vec::with_capacity(group_by.len() + 1);
        for g in group_by {
            let idx = input_schema.index_of(g)?;
            group_idx.push(idx);
            out_fields.push(input_schema.fields()[idx].clone());
        }
        let (agg_idx, result_field) = match (func, agg_attr) {
            (AggFunc::Count, None) => (None, Field::new("count", AttrType::Int)),
            (f, Some(attr)) => {
                let idx = input_schema.index_of(attr)?;
                let in_ty = input_schema.fields()[idx].ty;
                if matches!(f, AggFunc::Avg | AggFunc::Sum) && !in_ty.is_numeric() {
                    return Err(OpError::BadSpec(format!(
                        "{f} needs a numeric attribute, `{attr}` is {in_ty}"
                    )));
                }
                let mut field = Field::new(&format!("{}_{attr}", f.name()), f.result_type(in_ty));
                // MIN/MAX/AVG/SUM keep the unit of the source attribute.
                if f != AggFunc::Count {
                    field.unit = input_schema.fields()[idx].unit;
                }
                (Some(idx), field)
            }
            (f, None) => {
                return Err(OpError::BadSpec(format!(
                    "{f} requires an attribute to aggregate"
                )));
            }
        };
        out_fields.push(result_field);
        let out_schema = Schema::new(out_fields).map_err(OpError::from)?.into_ref();
        Ok(AggregateOp {
            period,
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            group_idx,
            func,
            agg_attr: agg_attr.map(str::to_string),
            agg_idx,
            cache: AggCache::Tumbling(TumblingCache::new()),
            out_schema,
        })
    }

    /// Build a *sliding* aggregation: every `period`, aggregate the tuples
    /// whose timestamps fall within the last `span` (retained across
    /// ticks). Same parameters as [`AggregateOp::new`] otherwise.
    #[allow(clippy::too_many_arguments)]
    pub fn sliding(
        period: Duration,
        span: Duration,
        group_by: &[&str],
        func: AggFunc,
        agg_attr: Option<&str>,
        input_schema: &SchemaRef,
    ) -> Result<AggregateOp, OpError> {
        if span.is_zero() {
            return Err(OpError::BadSpec(
                "sliding window span must be positive".into(),
            ));
        }
        let mut op = AggregateOp::new(period, group_by, func, agg_attr, input_schema)?;
        op.cache = AggCache::Sliding(SlidingWindow::new(span));
        Ok(op)
    }

    /// The sliding span, if this aggregation slides.
    pub fn sliding_span(&self) -> Option<Duration> {
        match &self.cache {
            AggCache::Sliding(w) => Some(w.span()),
            AggCache::Tumbling(_) => None,
        }
    }

    /// The aggregation function.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// The grouping attributes.
    pub fn group_by(&self) -> &[String] {
        &self.group_by
    }

    /// The aggregated attribute, if any.
    pub fn agg_attr(&self) -> Option<&str> {
        self.agg_attr.as_deref()
    }

    /// Tuples currently cached (monitoring).
    pub fn cached(&self) -> usize {
        match &self.cache {
            AggCache::Tumbling(c) => c.len(),
            AggCache::Sliding(w) => w.len(),
        }
    }

    fn aggregate_group(&self, members: &[&Tuple]) -> Result<Value, OpError> {
        debug_assert!(!members.is_empty());
        // Plain COUNT counts rows: the one function `new` lets go without an
        // attribute.
        let Some(idx) = self.agg_idx else {
            return Ok(Value::Int(members.len() as i64));
        };
        match self.func {
            // COUNT(attr) counts non-null values.
            AggFunc::Count => Ok(Value::Int(
                members
                    .iter()
                    .filter(|t| t.get_at(idx).is_some_and(|v| !v.is_null()))
                    .count() as i64,
            )),
            AggFunc::Sum | AggFunc::Avg => {
                let mut sum = 0.0;
                let mut n = 0usize;
                let mut all_int = true;
                let mut isum: i64 = 0;
                for t in members {
                    match t.get_at(idx) {
                        Some(Value::Null) | None => {}
                        Some(v) => {
                            sum += v.as_f64().map_err(OpError::from)?;
                            if let Value::Int(i) = v {
                                isum = isum.wrapping_add(*i);
                            } else {
                                all_int = false;
                            }
                            n += 1;
                        }
                    }
                }
                if n == 0 {
                    return Ok(Value::Null);
                }
                Ok(match self.func {
                    AggFunc::Sum if all_int => Value::Int(isum),
                    AggFunc::Sum => Value::Float(sum),
                    _ => Value::Float(sum / n as f64),
                })
            }
            AggFunc::Min | AggFunc::Max => {
                let mut best: Option<&Value> = None;
                for t in members {
                    let Some(v) = t.get_at(idx) else { continue };
                    if v.is_null() {
                        continue;
                    }
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            let keep_new = match self.func {
                                AggFunc::Min => v.total_cmp(b).is_lt(),
                                _ => v.total_cmp(b).is_gt(),
                            };
                            if keep_new {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                Ok(best.cloned().unwrap_or(Value::Null))
            }
        }
    }
}

impl Operator for AggregateOp {
    fn kind(&self) -> &'static str {
        "aggregate"
    }

    fn output_schema(&self) -> SchemaRef {
        self.out_schema.clone()
    }

    fn on_tuple(&mut self, port: usize, tuple: Tuple, ctx: &mut OpContext) -> Result<(), OpError> {
        if port != 0 {
            return Err(OpError::BadPort {
                kind: self.kind(),
                port,
            });
        }
        match &mut self.cache {
            AggCache::Tumbling(c) => c.push(tuple),
            AggCache::Sliding(w) => {
                let now = ctx.now;
                w.push(tuple, now);
            }
        }
        Ok(())
    }

    fn on_timer(&mut self, now: Timestamp, ctx: &mut OpContext) -> Result<(), OpError> {
        // A tumbling window is flushed by the tick; a sliding one is kept
        // and grouped in place.
        let drained = match &mut self.cache {
            AggCache::Tumbling(c) => c.drain(),
            AggCache::Sliding(w) => {
                w.evict(now);
                Vec::new()
            }
        };
        let tuples: Vec<&Tuple> = match &self.cache {
            AggCache::Tumbling(_) => drained.iter().collect(),
            AggCache::Sliding(w) => w.iter().collect(),
        };
        if tuples.is_empty() {
            return Ok(());
        }
        // Group deterministically (BTreeMap over rendered keys).
        let mut groups: BTreeMap<String, Vec<&Tuple>> = BTreeMap::new();
        for t in tuples {
            groups
                .entry(group_key(t, &self.group_idx))
                .or_default()
                .push(t);
        }
        for members in groups.values() {
            let result = self.aggregate_group(members)?;
            let exemplar = members[0];
            let mut values = Vec::with_capacity(self.group_idx.len() + 1);
            for idx in &self.group_idx {
                values.push(exemplar.get_at(*idx).cloned().unwrap_or(Value::Null));
            }
            values.push(result);
            let meta = SttMeta {
                timestamp: now,
                location: exemplar.meta.location,
                theme: exemplar.meta.theme.clone(),
                sensor: exemplar.meta.sensor,
                trace: exemplar.meta.trace,
            };
            ctx.emit(Tuple::new(self.out_schema.clone(), values, meta)?);
        }
        Ok(())
    }

    fn timer_period(&self) -> Option<Duration> {
        Some(self.period)
    }

    fn cost_per_tuple(&self) -> f64 {
        2.0 + self.group_idx.len() as f64
    }

    fn checkpoint(&self) -> Option<OpCheckpoint> {
        let tuples = match &self.cache {
            AggCache::Tumbling(c) => c.tuples().to_vec(),
            AggCache::Sliding(w) => w.iter().cloned().collect(),
        };
        Some(OpCheckpoint::single_port(tuples))
    }

    fn checkpoint_delta(&mut self) -> Option<CheckpointDelta> {
        Some(match &mut self.cache {
            AggCache::Tumbling(c) => c.take_delta(0),
            AggCache::Sliding(w) => w.take_delta(0),
        })
    }

    fn restore(&mut self, ckpt: OpCheckpoint) {
        let tuples = ckpt.tuples.into_iter().filter(|(port, _)| *port == 0);
        match &mut self.cache {
            AggCache::Tumbling(c) => {
                c.clear();
                for (_, t) in tuples {
                    c.push(t);
                }
            }
            AggCache::Sliding(w) => {
                w.clear();
                for (_, t) in tuples {
                    // Re-insert against the tuple's own timestamp so the
                    // window's eviction horizon is unchanged by the restore.
                    let at = t.meta.timestamp;
                    w.push(t, at);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{GeoPoint, SensorId, Theme};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("station", AttrType::Str),
            Field::new("temperature", AttrType::Float),
            Field::new("hits", AttrType::Int),
        ])
        .unwrap()
        .into_ref()
    }

    fn tuple(station: &str, temp: f64, hits: i64, sec: i64) -> Tuple {
        Tuple::new(
            schema(),
            vec![
                Value::Str(station.into()),
                Value::Float(temp),
                Value::Int(hits),
            ],
            SttMeta::new(
                Timestamp::from_secs(sec),
                GeoPoint::new_unchecked(34.7, 135.5),
                Theme::new("weather/temperature").unwrap(),
                SensorId(0),
            ),
        )
        .unwrap()
    }

    fn run_window(op: &mut AggregateOp, tuples: Vec<Tuple>, at: i64) -> Vec<Tuple> {
        let mut ctx = OpContext::new(Timestamp::from_secs(at));
        for t in tuples {
            op.on_tuple(0, t, &mut ctx).unwrap();
        }
        op.on_timer(Timestamp::from_secs(at), &mut ctx).unwrap();
        ctx.take().0
    }

    #[test]
    fn avg_grouped_by_station() {
        let mut op = AggregateOp::new(
            Duration::from_secs(60),
            &["station"],
            AggFunc::Avg,
            Some("temperature"),
            &schema(),
        )
        .unwrap();
        let out = run_window(
            &mut op,
            vec![
                tuple("osaka", 20.0, 1, 0),
                tuple("osaka", 30.0, 1, 1),
                tuple("kyoto", 10.0, 1, 2),
            ],
            60,
        );
        assert_eq!(out.len(), 2);
        // BTreeMap order: kyoto before osaka.
        assert_eq!(out[0].get("station").unwrap(), &Value::Str("kyoto".into()));
        assert_eq!(out[0].get("avg_temperature").unwrap(), &Value::Float(10.0));
        assert_eq!(out[1].get("avg_temperature").unwrap(), &Value::Float(25.0));
        // Output stamped at the window boundary.
        assert_eq!(out[0].meta.timestamp, Timestamp::from_secs(60));
    }

    #[test]
    fn count_equals_window_population() {
        let mut op = AggregateOp::new(
            Duration::from_secs(10),
            &[],
            AggFunc::Count,
            None,
            &schema(),
        )
        .unwrap();
        let tuples: Vec<_> = (0..7).map(|i| tuple("s", 1.0, 1, i)).collect();
        let out = run_window(&mut op, tuples, 10);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("count").unwrap(), &Value::Int(7));
    }

    #[test]
    fn sum_int_preserving_and_min_max() {
        let mut op = AggregateOp::new(
            Duration::from_secs(10),
            &[],
            AggFunc::Sum,
            Some("hits"),
            &schema(),
        )
        .unwrap();
        assert_eq!(
            op.output_schema().field("sum_hits").unwrap().ty,
            AttrType::Int
        );
        let out = run_window(
            &mut op,
            vec![tuple("a", 0.0, 3, 0), tuple("a", 0.0, 4, 1)],
            10,
        );
        assert_eq!(out[0].get("sum_hits").unwrap(), &Value::Int(7));

        let mut op = AggregateOp::new(
            Duration::from_secs(10),
            &[],
            AggFunc::Min,
            Some("temperature"),
            &schema(),
        )
        .unwrap();
        let out = run_window(
            &mut op,
            vec![tuple("a", 5.0, 0, 0), tuple("a", -3.0, 0, 1)],
            10,
        );
        assert_eq!(out[0].get("min_temperature").unwrap(), &Value::Float(-3.0));

        let mut op = AggregateOp::new(
            Duration::from_secs(10),
            &[],
            AggFunc::Max,
            Some("temperature"),
            &schema(),
        )
        .unwrap();
        let out = run_window(
            &mut op,
            vec![tuple("a", 5.0, 0, 0), tuple("a", -3.0, 0, 1)],
            10,
        );
        assert_eq!(out[0].get("max_temperature").unwrap(), &Value::Float(5.0));
    }

    #[test]
    fn nulls_ignored_in_aggregates() {
        let mut op = AggregateOp::new(
            Duration::from_secs(10),
            &[],
            AggFunc::Avg,
            Some("temperature"),
            &schema(),
        )
        .unwrap();
        let mut t = tuple("a", 99.0, 0, 0);
        t.set("temperature", Value::Null).unwrap();
        let out = run_window(&mut op, vec![t, tuple("a", 10.0, 0, 1)], 10);
        assert_eq!(out[0].get("avg_temperature").unwrap(), &Value::Float(10.0));
        // All-null group aggregates to null.
        let mut op = AggregateOp::new(
            Duration::from_secs(10),
            &[],
            AggFunc::Avg,
            Some("temperature"),
            &schema(),
        )
        .unwrap();
        let mut t = tuple("a", 0.0, 0, 0);
        t.set("temperature", Value::Null).unwrap();
        let out = run_window(&mut op, vec![t], 10);
        assert_eq!(out[0].get("avg_temperature").unwrap(), &Value::Null);
    }

    #[test]
    fn count_attr_counts_non_null() {
        let mut op = AggregateOp::new(
            Duration::from_secs(10),
            &[],
            AggFunc::Count,
            Some("temperature"),
            &schema(),
        )
        .unwrap();
        let mut t = tuple("a", 0.0, 0, 0);
        t.set("temperature", Value::Null).unwrap();
        let out = run_window(&mut op, vec![t, tuple("a", 1.0, 0, 1)], 10);
        assert_eq!(out[0].get("count_temperature").unwrap(), &Value::Int(1));
    }

    #[test]
    fn empty_window_emits_nothing() {
        let mut op = AggregateOp::new(
            Duration::from_secs(10),
            &[],
            AggFunc::Count,
            None,
            &schema(),
        )
        .unwrap();
        let out = run_window(&mut op, vec![], 10);
        assert!(out.is_empty());
    }

    #[test]
    fn windows_tumble_independently() {
        let mut op = AggregateOp::new(
            Duration::from_secs(10),
            &[],
            AggFunc::Count,
            None,
            &schema(),
        )
        .unwrap();
        let out1 = run_window(&mut op, vec![tuple("a", 0.0, 0, 0)], 10);
        assert_eq!(out1[0].get("count").unwrap(), &Value::Int(1));
        // Second window does not see the first's tuples.
        let out2 = run_window(
            &mut op,
            vec![tuple("a", 0.0, 0, 11), tuple("a", 0.0, 0, 12)],
            20,
        );
        assert_eq!(out2[0].get("count").unwrap(), &Value::Int(2));
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(AggregateOp::new(Duration::ZERO, &[], AggFunc::Count, None, &schema()).is_err());
        assert!(
            AggregateOp::new(Duration::from_secs(1), &[], AggFunc::Avg, None, &schema()).is_err()
        );
        assert!(AggregateOp::new(
            Duration::from_secs(1),
            &[],
            AggFunc::Avg,
            Some("station"),
            &schema()
        )
        .is_err());
        assert!(AggregateOp::new(
            Duration::from_secs(1),
            &["nope"],
            AggFunc::Count,
            None,
            &schema()
        )
        .is_err());
        assert!(AggFunc::parse("median").is_err());
        assert_eq!(AggFunc::parse("AVG").unwrap(), AggFunc::Avg);
    }

    #[test]
    fn sliding_window_retains_last_span() {
        // Period 10 s, span 30 s: each tick averages the last 30 s of data.
        let mut op = AggregateOp::sliding(
            Duration::from_secs(10),
            Duration::from_secs(30),
            &[],
            AggFunc::Avg,
            Some("temperature"),
            &schema(),
        )
        .unwrap();
        assert_eq!(op.sliding_span(), Some(Duration::from_secs(30)));
        // Feed one tuple per second for 60 s, ticking every 10.
        let mut outputs = Vec::new();
        for s in 0..60i64 {
            let mut ctx = OpContext::new(Timestamp::from_secs(s));
            op.on_tuple(0, tuple("a", s as f64, 0, s), &mut ctx)
                .unwrap();
            if (s + 1) % 10 == 0 {
                let now = Timestamp::from_secs(s + 1);
                let mut tctx = OpContext::new(now);
                op.on_timer(now, &mut tctx).unwrap();
                outputs.push(tctx.take().0.remove(0));
            }
        }
        assert_eq!(outputs.len(), 6);
        // First tick at t=10: values 0..=9 -> avg 4.5.
        assert_eq!(
            outputs[0].get("avg_temperature").unwrap(),
            &Value::Float(4.5)
        );
        // Tick at t=40: window [10, 40) -> values 10..=39 -> avg 24.5.
        assert_eq!(
            outputs[3].get("avg_temperature").unwrap(),
            &Value::Float(24.5)
        );
        // Tick at t=60: window [30, 60) -> values 30..=59 -> avg 44.5.
        assert_eq!(
            outputs[5].get("avg_temperature").unwrap(),
            &Value::Float(44.5)
        );
        // Cache retains ~30 tuples (not drained).
        assert!(
            op.cached() >= 29 && op.cached() <= 31,
            "cached {}",
            op.cached()
        );
    }

    #[test]
    fn sliding_rejects_zero_span() {
        assert!(AggregateOp::sliding(
            Duration::from_secs(1),
            Duration::ZERO,
            &[],
            AggFunc::Count,
            None,
            &schema()
        )
        .is_err());
        // Tumbling constructor reports no span.
        let op =
            AggregateOp::new(Duration::from_secs(1), &[], AggFunc::Count, None, &schema()).unwrap();
        assert_eq!(op.sliding_span(), None);
    }

    #[test]
    fn checkpoint_round_trip_preserves_aggregate() {
        let mut op = AggregateOp::new(
            Duration::from_secs(60),
            &[],
            AggFunc::Avg,
            Some("temperature"),
            &schema(),
        )
        .unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        op.on_tuple(0, tuple("a", 10.0, 0, 1), &mut ctx).unwrap();
        op.on_tuple(0, tuple("a", 30.0, 0, 2), &mut ctx).unwrap();

        // Snapshot, wipe (the crash), restore, and tick: same answer as an
        // uninterrupted run.
        let ckpt = op.checkpoint().unwrap();
        assert_eq!(ckpt.len(), 2);
        op.restore(crate::OpCheckpoint::empty());
        assert_eq!(op.cached(), 0);
        op.restore(ckpt);
        assert_eq!(op.cached(), 2);
        let mut tctx = OpContext::new(Timestamp::from_secs(60));
        op.on_timer(Timestamp::from_secs(60), &mut tctx).unwrap();
        let out = tctx.take().0;
        assert_eq!(out[0].get("avg_temperature").unwrap(), &Value::Float(20.0));
    }

    #[test]
    fn sliding_checkpoint_keeps_eviction_horizon() {
        let mut op = AggregateOp::sliding(
            Duration::from_secs(10),
            Duration::from_secs(30),
            &[],
            AggFunc::Count,
            None,
            &schema(),
        )
        .unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        for s in 0..20 {
            op.on_tuple(0, tuple("a", 0.0, 0, s), &mut ctx).unwrap();
        }
        let ckpt = op.checkpoint().unwrap();
        op.restore(ckpt);
        assert_eq!(op.cached(), 20);
        // Eviction after restore still works off tuple timestamps.
        let mut tctx = OpContext::new(Timestamp::from_secs(40));
        op.on_timer(Timestamp::from_secs(40), &mut tctx).unwrap();
        let out = tctx.take().0;
        // Window [10, 40): tuples stamped 10..=19 remain.
        assert_eq!(out[0].get("count").unwrap(), &Value::Int(10));
    }

    #[test]
    fn is_blocking_with_period() {
        let op =
            AggregateOp::new(Duration::from_secs(5), &[], AggFunc::Count, None, &schema()).unwrap();
        assert!(op.is_blocking());
        assert_eq!(op.timer_period(), Some(Duration::from_secs(5)));
    }
}
