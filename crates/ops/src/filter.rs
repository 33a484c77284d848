//! Filter — `σ(s, cond)`: "Filter out tuples in s that do not adhere to the
//! condition cond" (Table 1). Non-blocking.

use crate::context::OpContext;
use crate::error::OpError;
use crate::Operator;
use sl_expr::CompiledExpr;
use sl_stt::{SchemaRef, Tuple};

/// The Filter operator.
#[derive(Debug)]
pub struct FilterOp {
    predicate: CompiledExpr,
    schema: SchemaRef,
}

impl FilterOp {
    /// Compile a filter over streams with the given schema.
    pub fn new(condition: &str, input_schema: &SchemaRef) -> Result<FilterOp, OpError> {
        let predicate = CompiledExpr::compile_predicate(condition, input_schema)
            .map_err(|e| e.with_context("filter condition"))?;
        Ok(FilterOp {
            predicate,
            schema: input_schema.clone(),
        })
    }

    /// The compiled condition.
    pub fn condition(&self) -> &str {
        self.predicate.source()
    }
}

impl Operator for FilterOp {
    fn kind(&self) -> &'static str {
        "filter"
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
        if self.predicate.eval_predicate(&tuple)? {
            ctx.emit(tuple);
        } else {
            ctx.drop_tuple();
        }
        Ok(())
    }

    fn cost_per_tuple(&self) -> f64 {
        1.0 + self.predicate.expr().size() as f64 * 0.1
    }

    fn is_shardable(&self) -> bool {
        true
    }

    fn replicate(&self) -> Option<Box<dyn Operator>> {
        FilterOp::new(self.condition(), &self.schema)
            .ok()
            .map(|op| Box::new(op) as Box<dyn Operator>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{AttrType, Field, GeoPoint, Schema, SensorId, SttMeta, Theme, Timestamp, Value};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref()
    }

    fn tuple(temp: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Float(temp), Value::Str("osaka".into())],
            SttMeta::new(
                Timestamp::from_secs(0),
                GeoPoint::new_unchecked(34.7, 135.5),
                Theme::new("weather/temperature").unwrap(),
                SensorId(0),
            ),
        )
        .unwrap()
    }

    #[test]
    fn keeps_matching_drops_rest() {
        let mut op = FilterOp::new("temperature > 25", &schema()).unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        for t in [20.0, 26.0, 25.0, 30.0] {
            op.on_tuple(0, tuple(t), &mut ctx).unwrap();
        }
        assert_eq!(ctx.emitted().len(), 2);
        assert_eq!(ctx.dropped(), 2);
        // Retained tuples all satisfy the condition (Table 1 semantics).
        for t in ctx.emitted() {
            assert!(t.get("temperature").unwrap().as_f64().unwrap() > 25.0);
        }
    }

    #[test]
    fn output_schema_is_input_schema() {
        let op = FilterOp::new("temperature > 0", &schema()).unwrap();
        assert_eq!(op.output_schema(), schema());
        assert!(!op.is_blocking());
        assert_eq!(op.kind(), "filter");
    }

    #[test]
    fn null_attribute_means_drop() {
        let mut op = FilterOp::new("temperature > 25", &schema()).unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        let mut t = tuple(30.0);
        t.set("temperature", Value::Null).unwrap();
        op.on_tuple(0, t, &mut ctx).unwrap();
        assert!(ctx.emitted().is_empty());
        assert_eq!(ctx.dropped(), 1);
    }

    #[test]
    fn rejects_bad_condition() {
        assert!(FilterOp::new("nope > 1", &schema()).is_err());
        assert!(FilterOp::new("temperature + 1", &schema()).is_err());
    }

    #[test]
    fn bad_port_rejected() {
        let mut op = FilterOp::new("temperature > 25", &schema()).unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        assert!(matches!(
            op.on_tuple(1, tuple(30.0), &mut ctx),
            Err(OpError::BadPort { .. })
        ));
    }

    #[test]
    fn meta_condition_on_position() {
        let mut op = FilterOp::new("_lat > 34 and _lat < 35", &schema()).unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        op.on_tuple(0, tuple(20.0), &mut ctx).unwrap();
        assert_eq!(ctx.emitted().len(), 1);
    }
}
