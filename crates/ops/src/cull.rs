//! Cull Time and Cull Space — `γr(s, <t1, t2>)` and `γr(s, <coord1,
//! coord2>)`: "Culling the tuples in the temporal interval \[t1, t2\] (resp.
//! the area delimited by coord1, coord2) by a reducing rate r" (Table 1).
//! Non-blocking.
//!
//! Culling is deterministic decimation: of every `r` consecutive tuples
//! falling inside the targeted region, exactly one (the first) is kept.
//! Tuples *outside* the region pass through untouched — culling thins a
//! hot region of the stream, it does not select it (that is Filter's job).

use crate::context::OpContext;
use crate::error::OpError;
use crate::Operator;
use sl_stt::{BoundingBox, SchemaRef, TimeInterval, Tuple};

/// Shared decimation state.
#[derive(Debug, Default)]
struct Decimator {
    counter: u64,
}

impl Decimator {
    /// True if this in-region tuple should be kept under rate `r`.
    fn keep(&mut self, r: u64) -> bool {
        let keep = self.counter.is_multiple_of(r);
        self.counter += 1;
        keep
    }
}

/// Cull Time: decimate tuples stamped inside a fixed interval.
#[derive(Debug)]
pub struct CullTimeOp {
    interval: TimeInterval,
    rate: u64,
    schema: SchemaRef,
    state: Decimator,
}

impl CullTimeOp {
    /// Keep 1 of every `rate` tuples whose timestamp is in `interval`.
    /// `rate` must be ≥ 1.
    pub fn new(
        interval: TimeInterval,
        rate: u64,
        input_schema: &SchemaRef,
    ) -> Result<CullTimeOp, OpError> {
        if rate == 0 {
            return Err(OpError::BadSpec("cull rate must be >= 1".into()));
        }
        Ok(CullTimeOp {
            interval,
            rate,
            schema: input_schema.clone(),
            state: Decimator::default(),
        })
    }

    /// The targeted interval.
    pub fn interval(&self) -> TimeInterval {
        self.interval
    }

    /// The reducing rate.
    pub fn rate(&self) -> u64 {
        self.rate
    }
}

impl Operator for CullTimeOp {
    fn kind(&self) -> &'static str {
        "cull_time"
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
        if self.interval.contains(tuple.meta.timestamp) && !self.state.keep(self.rate) {
            ctx.drop_tuple();
        } else {
            ctx.emit(tuple);
        }
        Ok(())
    }
}

/// Cull Space: decimate tuples positioned inside a bounding box. Tuples
/// without a position count as outside and always pass.
#[derive(Debug)]
pub struct CullSpaceOp {
    area: BoundingBox,
    rate: u64,
    schema: SchemaRef,
    state: Decimator,
}

impl CullSpaceOp {
    /// Keep 1 of every `rate` tuples positioned inside `area`.
    pub fn new(
        area: BoundingBox,
        rate: u64,
        input_schema: &SchemaRef,
    ) -> Result<CullSpaceOp, OpError> {
        if rate == 0 {
            return Err(OpError::BadSpec("cull rate must be >= 1".into()));
        }
        Ok(CullSpaceOp {
            area,
            rate,
            schema: input_schema.clone(),
            state: Decimator::default(),
        })
    }

    /// The targeted area.
    pub fn area(&self) -> BoundingBox {
        self.area
    }

    /// The reducing rate.
    pub fn rate(&self) -> u64 {
        self.rate
    }
}

impl Operator for CullSpaceOp {
    fn kind(&self) -> &'static str {
        "cull_space"
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
        let inside = tuple.meta.location.is_some_and(|p| self.area.contains(&p));
        if inside && !self.state.keep(self.rate) {
            ctx.drop_tuple();
        } else {
            ctx.emit(tuple);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{AttrType, Field, GeoPoint, Schema, SensorId, SttMeta, Theme, Timestamp, Value};

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("v", AttrType::Int)])
            .unwrap()
            .into_ref()
    }

    fn tuple_at(sec: i64, lat: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Int(sec)],
            SttMeta::new(
                Timestamp::from_secs(sec),
                GeoPoint::new_unchecked(lat, 135.5),
                Theme::unclassified(),
                SensorId(0),
            ),
        )
        .unwrap()
    }

    #[test]
    fn cull_time_decimates_inside_interval() {
        let interval = TimeInterval::new(Timestamp::from_secs(10), Timestamp::from_secs(20));
        let mut op = CullTimeOp::new(interval, 3, &schema()).unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        // 10 tuples inside the interval -> ceil(10/3) = 4 kept.
        for s in 10..20 {
            op.on_tuple(0, tuple_at(s, 0.0), &mut ctx).unwrap();
        }
        assert_eq!(ctx.emitted().len(), 4);
        assert_eq!(ctx.dropped(), 6);
        // Kept tuples are every third: 10, 13, 16, 19.
        let kept: Vec<i64> = ctx
            .emitted()
            .iter()
            .map(|t| t.get("v").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(kept, vec![10, 13, 16, 19]);
    }

    #[test]
    fn cull_time_passes_outside_interval() {
        let interval = TimeInterval::new(Timestamp::from_secs(10), Timestamp::from_secs(20));
        let mut op = CullTimeOp::new(interval, 1000, &schema()).unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        for s in 0..10 {
            op.on_tuple(0, tuple_at(s, 0.0), &mut ctx).unwrap();
        }
        for s in 20..30 {
            op.on_tuple(0, tuple_at(s, 0.0), &mut ctx).unwrap();
        }
        assert_eq!(ctx.emitted().len(), 20);
        assert_eq!(ctx.dropped(), 0);
    }

    #[test]
    fn rate_one_keeps_everything() {
        let interval = TimeInterval::new(Timestamp::from_secs(0), Timestamp::from_secs(100));
        let mut op = CullTimeOp::new(interval, 1, &schema()).unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        for s in 0..50 {
            op.on_tuple(0, tuple_at(s, 0.0), &mut ctx).unwrap();
        }
        assert_eq!(ctx.emitted().len(), 50);
    }

    #[test]
    fn rate_zero_rejected() {
        let interval = TimeInterval::new(Timestamp::from_secs(0), Timestamp::from_secs(1));
        assert!(CullTimeOp::new(interval, 0, &schema()).is_err());
        let bb = BoundingBox::from_corners(
            GeoPoint::new_unchecked(0.0, 0.0),
            GeoPoint::new_unchecked(1.0, 1.0),
        );
        assert!(CullSpaceOp::new(bb, 0, &schema()).is_err());
    }

    #[test]
    fn cull_space_decimates_inside_area() {
        let osaka = BoundingBox::from_corners(
            GeoPoint::new_unchecked(34.0, 135.0),
            GeoPoint::new_unchecked(35.0, 136.0),
        );
        let mut op = CullSpaceOp::new(osaka, 2, &schema()).unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        // Alternate inside (34.7) and outside (40.0).
        for s in 0..10 {
            let lat = if s % 2 == 0 { 34.7 } else { 40.0 };
            op.on_tuple(0, tuple_at(s, lat), &mut ctx).unwrap();
        }
        // 5 inside -> 3 kept (ceil 5/2); 5 outside all pass.
        assert_eq!(ctx.emitted().len(), 8);
        assert_eq!(ctx.dropped(), 2);
    }

    #[test]
    fn unlocated_tuples_always_pass_cull_space() {
        let area = BoundingBox::from_corners(
            GeoPoint::new_unchecked(-90.0, -180.0),
            GeoPoint::new_unchecked(90.0, 180.0),
        );
        let mut op = CullSpaceOp::new(area, 10, &schema()).unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        for s in 0..5 {
            let mut t = tuple_at(s, 0.0);
            t.meta.location = None;
            op.on_tuple(0, t, &mut ctx).unwrap();
        }
        assert_eq!(ctx.emitted().len(), 5);
    }

    #[test]
    fn reduction_ratio_approaches_rate() {
        let interval = TimeInterval::new(Timestamp::from_secs(0), Timestamp::from_secs(100_000));
        for rate in [2u64, 5, 10] {
            let mut op = CullTimeOp::new(interval, rate, &schema()).unwrap();
            let mut ctx = OpContext::new(Timestamp::from_secs(0));
            let n = 10_000i64;
            for s in 0..n {
                op.on_tuple(0, tuple_at(s % 90_000, 0.0), &mut ctx).unwrap();
            }
            let kept = ctx.emitted().len() as f64;
            let expect = n as f64 / rate as f64;
            assert!(
                (kept - expect).abs() <= 1.0,
                "rate {rate}: kept {kept}, expected {expect}"
            );
        }
    }
}
