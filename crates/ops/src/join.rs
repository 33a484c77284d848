//! Join — `s1 ⋈t_pred s2`: "Every t time intervals, s1 and s2 are joined
//! according to the join predicate" (Table 1). Blocking, two input ports.
//!
//! Both sides are cached in tumbling windows; on the tick the windows are
//! joined and cleared. Two execution strategies:
//!
//! * **hash join** — used automatically when the predicate contains a
//!   top-level equality between a left attribute and a right attribute
//!   (`a = right_b [and rest]`): the right window is hashed on `b`, each
//!   left tuple probes, and any residual predicate is applied to the
//!   concatenated tuple;
//! * **nested loop** — the general fallback.

use crate::checkpoint::{CheckpointDelta, OpCheckpoint};
use crate::context::OpContext;
use crate::error::OpError;
use crate::window::TumblingCache;
use crate::Operator;
use sl_expr::{BinOp, CompiledExpr, Expr};
use sl_stt::{Duration, SchemaRef, Timestamp, Tuple, Value};
use std::collections::HashMap;

/// Equality key extracted from the predicate for hash joins.
#[derive(Debug, Clone)]
struct EquiKey {
    /// Attribute index in the left schema.
    left_idx: usize,
    /// Attribute index in the right schema.
    right_idx: usize,
}

/// The Join operator.
#[derive(Debug)]
pub struct JoinOp {
    period: Duration,
    predicate: CompiledExpr,
    equi: Option<EquiKey>,
    left: TumblingCache,
    right: TumblingCache,
    out_schema: SchemaRef,
}

impl JoinOp {
    /// Build a join of two streams.
    ///
    /// The predicate is written against the *join schema*: left attributes
    /// by name, right attributes by name (prefixed `right_` when colliding
    /// with a left name, as produced by [`sl_stt::Schema::join`]).
    pub fn new(
        period: Duration,
        predicate: &str,
        left_schema: &SchemaRef,
        right_schema: &SchemaRef,
    ) -> Result<JoinOp, OpError> {
        if period.is_zero() {
            return Err(OpError::BadSpec("join period must be positive".into()));
        }
        let joined = left_schema.join(right_schema);
        let compiled = CompiledExpr::compile_predicate(predicate, &joined)
            .map_err(|e| e.with_context("join predicate"))?;
        let equi = find_equi_key(compiled.expr(), left_schema, right_schema);
        Ok(JoinOp {
            period,
            predicate: compiled,
            equi,
            left: TumblingCache::new(),
            right: TumblingCache::new(),
            out_schema: joined.into_ref(),
        })
    }

    /// Cached tuple counts `(left, right)` (monitoring).
    pub fn cached(&self) -> (usize, usize) {
        (self.left.len(), self.right.len())
    }

    /// The predicate source text.
    pub fn predicate(&self) -> &str {
        self.predicate.source()
    }

    fn emit_if_match(&self, l: &Tuple, r: &Tuple, ctx: &mut OpContext) -> Result<(), OpError> {
        let candidate = l.joined(r, self.out_schema.clone())?;
        if self.predicate.eval_predicate(&candidate)? {
            ctx.emit(candidate);
        }
        Ok(())
    }
}

/// Look for a top-level `left_attr = right_attr` conjunct usable as a hash
/// key. Walks the left spine of `and`s.
fn find_equi_key(expr: &Expr, left: &SchemaRef, right: &SchemaRef) -> Option<EquiKey> {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            left: l,
            right: r,
        } => find_equi_key(l, left, right).or_else(|| find_equi_key(r, left, right)),
        Expr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } => {
            let (Expr::Attr(x), Expr::Attr(y)) = (a.as_ref(), b.as_ref()) else {
                return None;
            };
            // Resolve each side: one must be a left attribute, the other a
            // right attribute (possibly `right_`-prefixed).
            let resolve = |name: &str| -> (Option<usize>, Option<usize>) {
                let l_idx = left.index_of(name).ok();
                let r_idx = right.index_of(name).ok().or_else(|| {
                    name.strip_prefix("right_")
                        .and_then(|n| right.index_of(n).ok())
                });
                (l_idx, r_idx)
            };
            let (xl, xr) = resolve(x);
            let (yl, yr) = resolve(y);
            // Prefer unambiguous assignments. A name that exists on the left
            // binds left (matching Schema::join semantics where collisions
            // keep the left name).
            match (xl, yr, yl, xr) {
                (Some(li), Some(ri), _, _) => Some(EquiKey {
                    left_idx: li,
                    right_idx: ri,
                }),
                (_, _, Some(li), Some(ri)) => Some(EquiKey {
                    left_idx: li,
                    right_idx: ri,
                }),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Render a value as a stable hash key (floats via bit pattern; Int(x) and
/// Float(x) deliberately DO NOT collide — equality across numeric types is
/// handled by the residual predicate in the nested path only when types
/// differ, so sensors joined on keys should agree on types).
fn value_key(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    match v {
        Value::Null => 0u8.hash(&mut h),
        Value::Bool(b) => {
            1u8.hash(&mut h);
            b.hash(&mut h);
        }
        Value::Int(i) => {
            2u8.hash(&mut h);
            i.hash(&mut h);
        }
        Value::Float(f) => {
            // Normalise ints-as-floats so 25 and 25.0 join.
            if f.fract() == 0.0 && f.abs() < 9e15 {
                2u8.hash(&mut h);
                (*f as i64).hash(&mut h);
            } else {
                3u8.hash(&mut h);
                f.to_bits().hash(&mut h);
            }
        }
        Value::Str(s) => {
            4u8.hash(&mut h);
            s.hash(&mut h);
        }
        Value::Time(t) => {
            5u8.hash(&mut h);
            t.as_millis().hash(&mut h);
        }
        Value::Geo(g) => {
            6u8.hash(&mut h);
            g.lat.to_bits().hash(&mut h);
            g.lon.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

impl Operator for JoinOp {
    fn kind(&self) -> &'static str {
        "join"
    }

    fn output_schema(&self) -> SchemaRef {
        self.out_schema.clone()
    }

    fn input_ports(&self) -> usize {
        2
    }

    fn on_tuple(&mut self, port: usize, tuple: Tuple, _ctx: &mut OpContext) -> Result<(), OpError> {
        match port {
            0 => self.left.push(tuple),
            1 => self.right.push(tuple),
            p => {
                return Err(OpError::BadPort {
                    kind: self.kind(),
                    port: p,
                })
            }
        }
        Ok(())
    }

    fn on_timer(&mut self, _now: Timestamp, ctx: &mut OpContext) -> Result<(), OpError> {
        let left = self.left.drain();
        let right = self.right.drain();
        if left.is_empty() || right.is_empty() {
            return Ok(());
        }
        match &self.equi {
            Some(key) => {
                // Hash join: build on right, probe with left.
                let mut table: HashMap<u64, Vec<&Tuple>> = HashMap::with_capacity(right.len());
                for r in &right {
                    let Some(v) = r.get_at(key.right_idx) else {
                        continue;
                    };
                    if v.is_null() {
                        continue; // null never equi-joins
                    }
                    table.entry(value_key(v)).or_default().push(r);
                }
                for l in &left {
                    let Some(v) = l.get_at(key.left_idx) else {
                        continue;
                    };
                    if v.is_null() {
                        continue;
                    }
                    if let Some(matches) = table.get(&value_key(v)) {
                        for r in matches {
                            self.emit_if_match(l, r, ctx)?;
                        }
                    }
                }
            }
            None => {
                // Nested loop.
                for l in &left {
                    for r in &right {
                        self.emit_if_match(l, r, ctx)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn timer_period(&self) -> Option<Duration> {
        Some(self.period)
    }

    fn cost_per_tuple(&self) -> f64 {
        if self.equi.is_some() {
            3.0
        } else {
            8.0
        }
    }

    fn checkpoint(&self) -> Option<OpCheckpoint> {
        let mut tuples: Vec<(usize, Tuple)> =
            self.left.tuples().iter().map(|t| (0, t.clone())).collect();
        tuples.extend(self.right.tuples().iter().map(|t| (1, t.clone())));
        Some(OpCheckpoint { tuples })
    }

    fn checkpoint_delta(&mut self) -> Option<CheckpointDelta> {
        // Both sides are drained and restored together, so their deltas
        // agree on `reset`.
        let mut delta = self.left.take_delta(0);
        delta.appended.extend(self.right.take_delta(1).appended);
        Some(delta)
    }

    fn restore(&mut self, ckpt: OpCheckpoint) {
        self.left.clear();
        self.right.clear();
        for (port, t) in ckpt.tuples {
            match port {
                0 => self.left.push(t),
                1 => self.right.push(t),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{AttrType, Field, GeoPoint, Schema, SensorId, SttMeta, Theme};

    fn left_schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("station", AttrType::Str),
            Field::new("temperature", AttrType::Float),
        ])
        .unwrap()
        .into_ref()
    }

    fn right_schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("station", AttrType::Str),
            Field::new("rain", AttrType::Float),
        ])
        .unwrap()
        .into_ref()
    }

    fn ltuple(station: &str, temp: f64) -> Tuple {
        Tuple::new(
            left_schema(),
            vec![Value::Str(station.into()), Value::Float(temp)],
            SttMeta::new(
                Timestamp::from_secs(1),
                GeoPoint::new_unchecked(34.7, 135.5),
                Theme::new("weather/temperature").unwrap(),
                SensorId(1),
            ),
        )
        .unwrap()
    }

    fn rtuple(station: &str, rain: f64) -> Tuple {
        Tuple::new(
            right_schema(),
            vec![Value::Str(station.into()), Value::Float(rain)],
            SttMeta::new(
                Timestamp::from_secs(2),
                GeoPoint::new_unchecked(34.7, 135.5),
                Theme::new("weather/rain").unwrap(),
                SensorId(2),
            ),
        )
        .unwrap()
    }

    fn run_join(op: &mut JoinOp, lefts: Vec<Tuple>, rights: Vec<Tuple>) -> Vec<Tuple> {
        let mut ctx = OpContext::new(Timestamp::from_secs(10));
        for t in lefts {
            op.on_tuple(0, t, &mut ctx).unwrap();
        }
        for t in rights {
            op.on_tuple(1, t, &mut ctx).unwrap();
        }
        op.on_timer(Timestamp::from_secs(10), &mut ctx).unwrap();
        ctx.take().0
    }

    #[test]
    fn checkpoint_round_trip_keeps_both_sides() {
        let mut op = JoinOp::new(
            Duration::from_secs(10),
            "station = right_station",
            &left_schema(),
            &right_schema(),
        )
        .unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(5));
        op.on_tuple(0, ltuple("osaka", 26.0), &mut ctx).unwrap();
        op.on_tuple(1, rtuple("osaka", 12.0), &mut ctx).unwrap();
        op.on_tuple(1, rtuple("nara", 3.0), &mut ctx).unwrap();
        let ckpt = op.checkpoint().unwrap();
        assert_eq!(ckpt.len(), 3);
        op.restore(crate::OpCheckpoint::empty());
        assert_eq!(op.cached(), (0, 0));
        op.restore(ckpt);
        assert_eq!(op.cached(), (1, 2));
        let mut tctx = OpContext::new(Timestamp::from_secs(10));
        op.on_timer(Timestamp::from_secs(10), &mut tctx).unwrap();
        assert_eq!(tctx.take().0.len(), 1);
    }

    #[test]
    fn equi_join_detected_and_correct() {
        let mut op = JoinOp::new(
            Duration::from_secs(10),
            "station = right_station",
            &left_schema(),
            &right_schema(),
        )
        .unwrap();
        assert!(op.equi.is_some());
        let out = run_join(
            &mut op,
            vec![ltuple("osaka", 26.0), ltuple("kyoto", 20.0)],
            vec![rtuple("osaka", 12.0), rtuple("nara", 3.0)],
        );
        assert_eq!(out.len(), 1);
        let j = &out[0];
        assert_eq!(j.get("station").unwrap(), &Value::Str("osaka".into()));
        assert_eq!(j.get("right_station").unwrap(), &Value::Str("osaka".into()));
        assert_eq!(j.get("temperature").unwrap(), &Value::Float(26.0));
        assert_eq!(j.get("rain").unwrap(), &Value::Float(12.0));
    }

    #[test]
    fn hash_and_nested_agree() {
        let pred = "station = right_station and temperature > 20";
        let mk = || {
            JoinOp::new(
                Duration::from_secs(10),
                pred,
                &left_schema(),
                &right_schema(),
            )
            .unwrap()
        };
        let lefts: Vec<_> = (0..20)
            .map(|i| ltuple(if i % 3 == 0 { "osaka" } else { "kyoto" }, 15.0 + i as f64))
            .collect();
        let rights: Vec<_> = (0..15)
            .map(|i| rtuple(if i % 2 == 0 { "osaka" } else { "nara" }, i as f64))
            .collect();
        let mut hash_op = mk();
        let hash_out = run_join(&mut hash_op, lefts.clone(), rights.clone());
        // Without its equality key the join falls back to the nested loop.
        let mut nl_op = mk();
        nl_op.equi = None;
        let nl_out = run_join(&mut nl_op, lefts, rights);
        assert_eq!(hash_out.len(), nl_out.len());
        assert!(!hash_out.is_empty());
        // Same multiset of results (order may differ).
        let render = |ts: &[Tuple]| {
            let mut v: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(render(&hash_out), render(&nl_out));
    }

    #[test]
    fn general_predicate_uses_nested_loop() {
        let mut op = JoinOp::new(
            Duration::from_secs(10),
            "abs(temperature - rain) < 5",
            &left_schema(),
            &right_schema(),
        )
        .unwrap();
        assert!(op.equi.is_none());
        let out = run_join(
            &mut op,
            vec![ltuple("a", 10.0)],
            vec![rtuple("b", 12.0), rtuple("c", 30.0)],
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn join_output_subset_of_product_and_pred_holds() {
        let mut op = JoinOp::new(
            Duration::from_secs(10),
            "station = right_station",
            &left_schema(),
            &right_schema(),
        )
        .unwrap();
        let out = run_join(
            &mut op,
            vec![ltuple("osaka", 1.0), ltuple("osaka", 2.0)],
            vec![rtuple("osaka", 3.0), rtuple("osaka", 4.0)],
        );
        assert_eq!(out.len(), 4); // full 2x2 product of matching keys
        for t in &out {
            assert_eq!(t.get("station").unwrap(), t.get("right_station").unwrap());
        }
    }

    #[test]
    fn windows_clear_after_tick() {
        let mut op = JoinOp::new(
            Duration::from_secs(10),
            "station = right_station",
            &left_schema(),
            &right_schema(),
        )
        .unwrap();
        let out = run_join(
            &mut op,
            vec![ltuple("osaka", 1.0)],
            vec![rtuple("osaka", 2.0)],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(op.cached(), (0, 0));
        // Next window with only a left tuple: the old right side is gone.
        let out = run_join(&mut op, vec![ltuple("osaka", 3.0)], vec![]);
        assert!(out.is_empty());
    }

    #[test]
    fn null_keys_never_join() {
        let mut op = JoinOp::new(
            Duration::from_secs(10),
            "station = right_station",
            &left_schema(),
            &right_schema(),
        )
        .unwrap();
        let mut l = ltuple("osaka", 1.0);
        l.set("station", Value::Null).unwrap();
        let mut r = rtuple("osaka", 2.0);
        r.set("station", Value::Null).unwrap();
        let out = run_join(&mut op, vec![l], vec![r]);
        assert!(out.is_empty());
    }

    #[test]
    fn numeric_cross_type_keys_join() {
        // Left Int key, right Float key with integral value.
        let ls = Schema::new(vec![Field::new("k", AttrType::Int)])
            .unwrap()
            .into_ref();
        let rs = Schema::new(vec![Field::new("k", AttrType::Float)])
            .unwrap()
            .into_ref();
        let meta = || {
            SttMeta::without_location(Timestamp::from_secs(0), Theme::unclassified(), SensorId(0))
        };
        let l = Tuple::new(ls.clone(), vec![Value::Int(25)], meta()).unwrap();
        let r = Tuple::new(rs.clone(), vec![Value::Float(25.0)], meta()).unwrap();
        let mut op = JoinOp::new(Duration::from_secs(10), "k = right_k", &ls, &rs).unwrap();
        assert!(op.equi.is_some());
        let mut ctx = OpContext::new(Timestamp::from_secs(10));
        op.on_tuple(0, l, &mut ctx).unwrap();
        op.on_tuple(1, r, &mut ctx).unwrap();
        op.on_timer(Timestamp::from_secs(10), &mut ctx).unwrap();
        assert_eq!(ctx.emitted().len(), 1);
    }

    #[test]
    fn two_ports_required() {
        let mut op = JoinOp::new(
            Duration::from_secs(10),
            "station = right_station",
            &left_schema(),
            &right_schema(),
        )
        .unwrap();
        assert_eq!(op.input_ports(), 2);
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        assert!(matches!(
            op.on_tuple(2, ltuple("a", 1.0), &mut ctx),
            Err(OpError::BadPort { .. })
        ));
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(JoinOp::new(
            Duration::ZERO,
            "station = right_station",
            &left_schema(),
            &right_schema()
        )
        .is_err());
        assert!(JoinOp::new(
            Duration::from_secs(1),
            "temperature + rain",
            &left_schema(),
            &right_schema()
        )
        .is_err());
        assert!(JoinOp::new(
            Duration::from_secs(1),
            "nope = right_station",
            &left_schema(),
            &right_schema()
        )
        .is_err());
    }
}
