//! Transform — `▷trans s`: "The transformation function trans is applied on
//! the tuples in s" (Table 1). Non-blocking.
//!
//! A transformation is a set of simultaneous attribute assignments
//! `attr := expr`, which covers the requirement-§2 cases:
//!
//! * unit-of-measure change: `distance := convert_unit(distance, 'yd', 'm')`,
//! * coordinate-standard change: `pos := convert_coords(lat_raw, lon_raw,
//!   'tokyo', 'wgs84')`,
//! * validation rules: `when := if(is_valid_date(when, 'YYYY-MM-DD'), when,
//!   null)` — non-conforming values are nulled so a downstream Filter can
//!   discard them.
//!
//! All right-hand sides are evaluated against the *input* tuple, then
//! assigned at once (no left-to-right dependency), so `a := b, b := a` swaps.

use crate::context::OpContext;
use crate::error::OpError;
use crate::Operator;
use sl_expr::{CompiledExpr, ExprType};
use sl_stt::{Field, Schema, SchemaRef, Tuple, Value};

/// The Transform operator.
#[derive(Debug)]
pub struct TransformOp {
    /// (attribute index in schema, compiled expression).
    assignments: Vec<(usize, CompiledExpr)>,
    in_schema: SchemaRef,
    out_schema: SchemaRef,
    sources: Vec<(String, String)>,
    /// The right-hand sides of one call, evaluated before any is assigned;
    /// kept so a call allocates nothing for them.
    scratch: Vec<(usize, Value)>,
}

impl TransformOp {
    /// Build from `(attribute, expression)` pairs. Each attribute must exist
    /// in the input schema; the output schema keeps the same attribute
    /// names, with types updated to the expressions' static types.
    pub fn new(
        assignments: &[(&str, &str)],
        input_schema: &SchemaRef,
    ) -> Result<TransformOp, OpError> {
        if assignments.is_empty() {
            return Err(OpError::BadSpec(
                "transform needs at least one assignment".into(),
            ));
        }
        let mut compiled = Vec::with_capacity(assignments.len());
        let mut out_fields: Vec<Field> = input_schema.fields().to_vec();
        let mut sources = Vec::with_capacity(assignments.len());
        for (attr, src) in assignments {
            let idx = input_schema.index_of(attr)?;
            if compiled.iter().any(|(i, _)| *i == idx) {
                return Err(OpError::BadSpec(format!(
                    "attribute `{attr}` assigned twice"
                )));
            }
            let expr = CompiledExpr::compile(src, input_schema)
                .map_err(|e| e.with_context(format!("assignment to `{attr}`")))?;
            // Output field type follows the expression; a null-typed
            // expression keeps the declared type.
            if let ExprType::Exact(t) = expr.result_type() {
                out_fields[idx].ty = t;
                if t != input_schema.fields()[idx].ty {
                    // A type change invalidates the old unit annotation.
                    out_fields[idx].unit = None;
                }
            }
            sources.push((attr.to_string(), src.to_string()));
            compiled.push((idx, expr));
        }
        let out_schema = Schema::new(out_fields).map_err(OpError::from)?.into_ref();
        Ok(TransformOp {
            scratch: Vec::with_capacity(compiled.len()),
            assignments: compiled,
            in_schema: input_schema.clone(),
            out_schema,
            sources,
        })
    }

    /// Convenience: a single-assignment transform performing a unit change
    /// on `attr` (the paper's yards→metres example).
    pub fn unit_conversion(
        attr: &str,
        from: sl_stt::Unit,
        to: sl_stt::Unit,
        input_schema: &SchemaRef,
    ) -> Result<TransformOp, OpError> {
        let src = format!("convert_unit({attr}, '{}', '{}')", from.name(), to.name());
        TransformOp::new(&[(attr, &src)], input_schema)
    }

    /// The `(attribute, expression-source)` pairs.
    pub fn assignments(&self) -> &[(String, String)] {
        &self.sources
    }
}

impl Operator for TransformOp {
    fn kind(&self) -> &'static str {
        "transform"
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
        debug_assert_eq!(tuple.schema().len(), self.in_schema.len());
        // Evaluate all right-hand sides against the input first.
        self.scratch.clear();
        for (idx, expr) in &self.assignments {
            self.scratch.push((*idx, expr.eval(&tuple)?));
        }
        let meta = tuple.meta.clone();
        let mut values = tuple.into_values();
        for (idx, v) in self.scratch.drain(..) {
            values[idx] = v;
        }
        ctx.emit(Tuple::new(self.out_schema.clone(), values, meta)?);
        Ok(())
    }

    fn cost_per_tuple(&self) -> f64 {
        1.0 + self
            .assignments
            .iter()
            .map(|(_, e)| e.expr().size() as f64 * 0.2)
            .sum::<f64>()
    }

    fn is_shardable(&self) -> bool {
        true
    }

    fn replicate(&self) -> Option<Box<dyn Operator>> {
        let pairs: Vec<(&str, &str)> = self
            .sources
            .iter()
            .map(|(a, s)| (a.as_str(), s.as_str()))
            .collect();
        TransformOp::new(&pairs, &self.in_schema)
            .ok()
            .map(|op| Box::new(op) as Box<dyn Operator>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{AttrType, GeoPoint, SensorId, SttMeta, Theme, Timestamp, Unit};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::with_unit("distance", AttrType::Float, Unit::Yard),
            Field::new("when", AttrType::Str),
            Field::new("a", AttrType::Float),
            Field::new("b", AttrType::Float),
        ])
        .unwrap()
        .into_ref()
    }

    fn tuple(distance: f64, when: &str, a: f64, b: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![
                Value::Float(distance),
                Value::Str(when.into()),
                Value::Float(a),
                Value::Float(b),
            ],
            SttMeta::new(
                Timestamp::from_secs(0),
                GeoPoint::new_unchecked(34.7, 135.5),
                Theme::new("weather").unwrap(),
                SensorId(0),
            ),
        )
        .unwrap()
    }

    #[test]
    fn yards_to_meters() {
        let mut op =
            TransformOp::unit_conversion("distance", Unit::Yard, Unit::Meter, &schema()).unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        op.on_tuple(0, tuple(100.0, "2016-03-15", 0.0, 0.0), &mut ctx)
            .unwrap();
        let out = &ctx.emitted()[0];
        assert_eq!(out.get("distance").unwrap(), &Value::Float(91.44));
        // Other attributes pass through untouched.
        assert_eq!(out.get("when").unwrap(), &Value::Str("2016-03-15".into()));
    }

    #[test]
    fn validation_rule_nulls_bad_dates() {
        let mut op = TransformOp::new(
            &[("when", "if(is_valid_date(when, 'YYYY-MM-DD'), when, null)")],
            &schema(),
        )
        .unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        op.on_tuple(0, tuple(0.0, "2016-03-15", 0.0, 0.0), &mut ctx)
            .unwrap();
        op.on_tuple(0, tuple(0.0, "2016-13-99", 0.0, 0.0), &mut ctx)
            .unwrap();
        assert_eq!(
            ctx.emitted()[0].get("when").unwrap(),
            &Value::Str("2016-03-15".into())
        );
        assert_eq!(ctx.emitted()[1].get("when").unwrap(), &Value::Null);
    }

    #[test]
    fn simultaneous_assignment_swaps() {
        let mut op = TransformOp::new(&[("a", "b"), ("b", "a")], &schema()).unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        op.on_tuple(0, tuple(0.0, "", 1.0, 2.0), &mut ctx).unwrap();
        let out = &ctx.emitted()[0];
        assert_eq!(out.get("a").unwrap(), &Value::Float(2.0));
        assert_eq!(out.get("b").unwrap(), &Value::Float(1.0));
    }

    #[test]
    fn output_schema_type_follows_expression() {
        let op = TransformOp::new(&[("when", "length(when)")], &schema()).unwrap();
        assert_eq!(op.output_schema().field("when").unwrap().ty, AttrType::Int);
        // Unit annotation dropped on type change.
        let op = TransformOp::new(&[("distance", "to_str(distance)")], &schema()).unwrap();
        let out = op.output_schema();
        let f = out.field("distance").unwrap();
        assert_eq!(f.ty, AttrType::Str);
        assert_eq!(f.unit, None);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(TransformOp::new(&[], &schema()).is_err());
        assert!(TransformOp::new(&[("missing", "1")], &schema()).is_err());
        assert!(TransformOp::new(&[("a", "1"), ("a", "2")], &schema()).is_err());
        assert!(TransformOp::new(&[("a", "nonsense(")], &schema()).is_err());
    }

    #[test]
    fn assignments_accessor() {
        let op = TransformOp::new(&[("a", "a + 1")], &schema()).unwrap();
        assert_eq!(op.assignments(), &[("a".to_string(), "a + 1".to_string())]);
        assert_eq!(op.kind(), "transform");
        assert!(!op.is_blocking());
    }

    #[test]
    fn compile_error_names_the_assignment() {
        let err = TransformOp::new(&[("a", "wind + 1")], &schema()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("assignment to `a`"), "{msg}");
        assert!(msg.contains("wind"), "{msg}");
    }
}
