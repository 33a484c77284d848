//! Trigger On / Trigger Off — `⊕ON,t(s, {s1..sn}, cond)` /
//! `⊕OFF,t(s, {s1..sn}, cond)`: "Every t time intervals the condition cond
//! is checked on the tuples collected from s. If the condition is verified,
//! the streams of the sensors {s1..sn} are (de-)activated" (Table 1).
//! Blocking.
//!
//! This is the *event-driven* half of StreamLoader: "the computation and
//! acquisition of the apparent temperature in a given area can be triggered
//! when the temperature is greater than 24 °C" (§2). The operator caches the
//! observed stream; on every tick it evaluates the condition over the cached
//! tuples and, if verified, emits a [`ControlAction`] that the engine turns
//! into source (de)activation. Observed tuples also pass through unchanged,
//! so a trigger can sit inline in a dataflow without consuming its input.

use crate::checkpoint::{CheckpointDelta, OpCheckpoint};
use crate::context::{ControlAction, OpContext};
use crate::error::OpError;
use crate::window::TumblingCache;
use crate::Operator;
use sl_expr::CompiledExpr;
use sl_stt::{Duration, SchemaRef, Timestamp, Tuple};

/// How the condition quantifies over the cached tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerMode {
    /// Fire if at least one cached tuple satisfies the condition (default;
    /// compose with an upstream Aggregation for averaged conditions, as the
    /// Figure 2 scenario does).
    Any,
    /// Fire only if every cached tuple satisfies it (and the cache is
    /// non-empty).
    All,
}

/// Direction of the trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerDirection {
    /// `⊕ON`: activate the targets when the condition fires.
    On,
    /// `⊕OFF`: deactivate the targets when the condition fires.
    Off,
}

/// The Trigger operator (both directions).
#[derive(Debug)]
pub struct TriggerOp {
    direction: TriggerDirection,
    period: Duration,
    condition: CompiledExpr,
    mode: TriggerMode,
    targets: Vec<String>,
    cache: TumblingCache,
    schema: SchemaRef,
    fired: u64,
}

impl TriggerOp {
    /// Build a trigger observing streams of `input_schema`.
    ///
    /// `targets` are dataflow source names to (de)activate.
    pub fn new(
        direction: TriggerDirection,
        period: Duration,
        condition: &str,
        mode: TriggerMode,
        targets: &[&str],
        input_schema: &SchemaRef,
    ) -> Result<TriggerOp, OpError> {
        if period.is_zero() {
            return Err(OpError::BadSpec("trigger period must be positive".into()));
        }
        if targets.is_empty() {
            return Err(OpError::BadSpec(
                "trigger needs at least one target stream".into(),
            ));
        }
        let condition = CompiledExpr::compile_predicate(condition, input_schema)
            .map_err(|e| e.with_context("trigger condition"))?;
        Ok(TriggerOp {
            direction,
            period,
            condition,
            mode,
            targets: targets.iter().map(|s| s.to_string()).collect(),
            cache: TumblingCache::new(),
            schema: input_schema.clone(),
            fired: 0,
        })
    }

    /// Convenience constructor for `⊕ON`.
    pub fn on(
        period: Duration,
        condition: &str,
        targets: &[&str],
        input_schema: &SchemaRef,
    ) -> Result<TriggerOp, OpError> {
        TriggerOp::new(
            TriggerDirection::On,
            period,
            condition,
            TriggerMode::Any,
            targets,
            input_schema,
        )
    }

    /// Convenience constructor for `⊕OFF`.
    pub fn off(
        period: Duration,
        condition: &str,
        targets: &[&str],
        input_schema: &SchemaRef,
    ) -> Result<TriggerOp, OpError> {
        TriggerOp::new(
            TriggerDirection::Off,
            period,
            condition,
            TriggerMode::Any,
            targets,
            input_schema,
        )
    }

    /// The trigger's direction.
    pub fn direction(&self) -> TriggerDirection {
        self.direction
    }

    /// The target source names.
    pub fn targets(&self) -> &[String] {
        &self.targets
    }

    /// The condition source text.
    pub fn condition(&self) -> &str {
        self.condition.source()
    }

    /// Times the trigger has fired.
    pub fn fired(&self) -> u64 {
        self.fired
    }
}

impl Operator for TriggerOp {
    fn kind(&self) -> &'static str {
        match self.direction {
            TriggerDirection::On => "trigger_on",
            TriggerDirection::Off => "trigger_off",
        }
    }

    fn output_schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn on_tuple(&mut self, port: usize, tuple: Tuple, ctx: &mut OpContext) -> Result<(), OpError> {
        if port != 0 {
            return Err(OpError::BadPort {
                kind: self.kind(),
                port,
            });
        }
        // Observed tuples pass through; a clone is cached for the tick.
        self.cache.push(tuple.clone());
        ctx.emit(tuple);
        Ok(())
    }

    fn on_timer(&mut self, _now: Timestamp, ctx: &mut OpContext) -> Result<(), OpError> {
        let tuples = self.cache.drain();
        if tuples.is_empty() {
            return Ok(());
        }
        let verified = match self.mode {
            TriggerMode::Any => {
                let mut any = false;
                for t in &tuples {
                    if self.condition.eval_predicate(t)? {
                        any = true;
                        break;
                    }
                }
                any
            }
            TriggerMode::All => {
                let mut all = true;
                for t in &tuples {
                    if !self.condition.eval_predicate(t)? {
                        all = false;
                        break;
                    }
                }
                all
            }
        };
        if verified {
            self.fired += 1;
            let action = match self.direction {
                TriggerDirection::On => ControlAction::Activate {
                    targets: self.targets.clone(),
                },
                TriggerDirection::Off => ControlAction::Deactivate {
                    targets: self.targets.clone(),
                },
            };
            ctx.control(action);
        }
        Ok(())
    }

    fn timer_period(&self) -> Option<Duration> {
        Some(self.period)
    }

    fn cost_per_tuple(&self) -> f64 {
        1.5
    }

    fn checkpoint(&self) -> Option<OpCheckpoint> {
        // The fired count is cumulative monitoring state, not window state;
        // only the observation cache needs to survive a crash.
        Some(OpCheckpoint::single_port(self.cache.tuples().to_vec()))
    }

    fn checkpoint_delta(&mut self) -> Option<CheckpointDelta> {
        Some(self.cache.take_delta(0))
    }

    fn restore(&mut self, ckpt: OpCheckpoint) {
        self.cache.clear();
        for (port, t) in ckpt.tuples {
            if port == 0 {
                self.cache.push(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{AttrType, Field, GeoPoint, Schema, SensorId, SttMeta, Theme, Value};

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("avg_temperature", AttrType::Float)])
            .unwrap()
            .into_ref()
    }

    fn tuple(v: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Float(v)],
            SttMeta::new(
                Timestamp::from_secs(0),
                GeoPoint::new_unchecked(34.7, 135.5),
                Theme::new("weather/temperature").unwrap(),
                SensorId(0),
            ),
        )
        .unwrap()
    }

    fn tick(op: &mut TriggerOp, values: &[f64]) -> (usize, Vec<ControlAction>) {
        let mut ctx = OpContext::new(Timestamp::from_secs(10));
        for v in values {
            op.on_tuple(0, tuple(*v), &mut ctx).unwrap();
        }
        op.on_timer(Timestamp::from_secs(10), &mut ctx).unwrap();
        let (tuples, controls) = ctx.take();
        (tuples.len(), controls)
    }

    #[test]
    fn scenario_trigger_fires_above_25() {
        // Figure 2: activate rain/tweet/traffic acquisition when the hourly
        // average temperature exceeds 25 °C.
        let mut op = TriggerOp::on(
            Duration::from_secs(3600),
            "avg_temperature > 25",
            &["rain", "tweets", "traffic"],
            &schema(),
        )
        .unwrap();
        let (passed, controls) = tick(&mut op, &[24.0, 26.5]);
        assert_eq!(passed, 2, "observed tuples pass through");
        assert_eq!(controls.len(), 1);
        assert_eq!(
            controls[0],
            ControlAction::Activate {
                targets: vec!["rain".into(), "tweets".into(), "traffic".into()]
            }
        );
        assert_eq!(op.fired(), 1);
    }

    #[test]
    fn trigger_does_not_fire_below_threshold() {
        let mut op = TriggerOp::on(
            Duration::from_secs(60),
            "avg_temperature > 25",
            &["x"],
            &schema(),
        )
        .unwrap();
        let (_, controls) = tick(&mut op, &[20.0, 24.9]);
        assert!(controls.is_empty());
        assert_eq!(op.fired(), 0);
    }

    #[test]
    fn trigger_off_emits_deactivate() {
        let mut op = TriggerOp::off(
            Duration::from_secs(60),
            "avg_temperature < 20",
            &["rain"],
            &schema(),
        )
        .unwrap();
        assert_eq!(op.kind(), "trigger_off");
        let (_, controls) = tick(&mut op, &[15.0]);
        assert_eq!(
            controls,
            vec![ControlAction::Deactivate {
                targets: vec!["rain".into()]
            }]
        );
    }

    #[test]
    fn all_mode_requires_every_tuple() {
        let mut op = TriggerOp::new(
            TriggerDirection::On,
            Duration::from_secs(60),
            "avg_temperature > 25",
            TriggerMode::All,
            &["x"],
            &schema(),
        )
        .unwrap();
        let (_, controls) = tick(&mut op, &[26.0, 24.0]);
        assert!(controls.is_empty());
        let (_, controls) = tick(&mut op, &[26.0, 27.0]);
        assert_eq!(controls.len(), 1);
    }

    #[test]
    fn empty_window_never_fires() {
        let mut op = TriggerOp::on(
            Duration::from_secs(60),
            "avg_temperature > 25",
            &["x"],
            &schema(),
        )
        .unwrap();
        let (_, controls) = tick(&mut op, &[]);
        assert!(controls.is_empty());
    }

    #[test]
    fn cache_tumbles_between_ticks() {
        let mut op = TriggerOp::on(
            Duration::from_secs(60),
            "avg_temperature > 25",
            &["x"],
            &schema(),
        )
        .unwrap();
        let (_, c1) = tick(&mut op, &[30.0]);
        assert_eq!(c1.len(), 1);
        // The hot tuple from the previous window must not re-fire.
        let (_, c2) = tick(&mut op, &[10.0]);
        assert!(c2.is_empty());
    }

    #[test]
    fn fires_once_per_window_not_per_tuple() {
        let mut op = TriggerOp::on(
            Duration::from_secs(60),
            "avg_temperature > 25",
            &["x"],
            &schema(),
        )
        .unwrap();
        let (_, controls) = tick(&mut op, &[26.0, 27.0, 28.0, 29.0]);
        assert_eq!(controls.len(), 1);
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(TriggerOp::on(Duration::ZERO, "avg_temperature > 25", &["x"], &schema()).is_err());
        assert!(TriggerOp::on(
            Duration::from_secs(1),
            "avg_temperature > 25",
            &[],
            &schema()
        )
        .is_err());
        assert!(TriggerOp::on(
            Duration::from_secs(1),
            "avg_temperature + 1",
            &["x"],
            &schema()
        )
        .is_err());
        assert!(TriggerOp::on(Duration::from_secs(1), "missing > 1", &["x"], &schema()).is_err());
    }

    #[test]
    fn is_blocking() {
        let op = TriggerOp::on(
            Duration::from_secs(60),
            "avg_temperature > 25",
            &["x"],
            &schema(),
        )
        .unwrap();
        assert!(op.is_blocking());
        assert_eq!(op.timer_period(), Some(Duration::from_secs(60)));
        assert_eq!(op.targets(), &["x".to_string()]);
        assert_eq!(op.condition(), "avg_temperature > 25");
        assert_eq!(op.direction(), TriggerDirection::On);
    }
}
