//! Virtual property — `⊎s⟨p, spec⟩`: "A new attribute p is added to the
//! schema of s according to the specification spec" (Table 1). Non-blocking.
//!
//! The paper's running example: "apparent temperature represents the
//! temperature that is perceived by humans and depends on both temperature
//! and humidity" (§2) — `⊎s⟨apparent_temperature,
//! apparent_temperature(temperature, humidity)⟩`.

use crate::context::OpContext;
use crate::error::OpError;
use crate::Operator;
use sl_expr::{CompiledExpr, ExprType};
use sl_stt::{AttrType, Field, SchemaRef, Tuple};

/// The Virtual Property operator.
#[derive(Debug)]
pub struct VirtualPropertyOp {
    property: String,
    spec: CompiledExpr,
    in_schema: SchemaRef,
    out_schema: SchemaRef,
}

impl VirtualPropertyOp {
    /// Add attribute `property` computed by `spec` to streams of
    /// `input_schema`. The property name must be fresh.
    pub fn new(
        property: &str,
        spec: &str,
        input_schema: &SchemaRef,
    ) -> Result<VirtualPropertyOp, OpError> {
        let compiled = CompiledExpr::compile(spec, input_schema)
            .map_err(|e| e.with_context(format!("specification of property `{property}`")))?;
        let ty = match compiled.result_type() {
            ExprType::Exact(t) => t,
            // A constantly-null property defaults to Float (numeric holes).
            ExprType::Null => AttrType::Float,
        };
        let out_schema = input_schema
            .with_field(Field::new(property, ty))
            .map_err(OpError::from)?
            .into_ref();
        Ok(VirtualPropertyOp {
            property: property.to_string(),
            spec: compiled,
            in_schema: input_schema.clone(),
            out_schema,
        })
    }

    /// The added attribute's name.
    pub fn property(&self) -> &str {
        &self.property
    }

    /// The specification source text.
    pub fn spec(&self) -> &str {
        self.spec.source()
    }
}

impl Operator for VirtualPropertyOp {
    fn kind(&self) -> &'static str {
        "virtual_property"
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
        let value = self.spec.eval(&tuple)?;
        ctx.emit(tuple.extended(self.out_schema.clone(), value)?);
        Ok(())
    }

    fn cost_per_tuple(&self) -> f64 {
        1.0 + self.spec.expr().size() as f64 * 0.2
    }

    fn is_shardable(&self) -> bool {
        true
    }

    fn replicate(&self) -> Option<Box<dyn Operator>> {
        VirtualPropertyOp::new(&self.property, self.spec.source(), &self.in_schema)
            .ok()
            .map(|op| Box::new(op) as Box<dyn Operator>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{GeoPoint, Schema, SensorId, SttMeta, Theme, Timestamp, Unit, Value};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::with_unit("temperature", AttrType::Float, Unit::Celsius),
            Field::with_unit("humidity", AttrType::Float, Unit::Percent),
        ])
        .unwrap()
        .into_ref()
    }

    fn tuple(t: f64, h: f64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Float(t), Value::Float(h)],
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
    fn apparent_temperature_example() {
        let mut op = VirtualPropertyOp::new(
            "apparent_temperature",
            "apparent_temperature(temperature, humidity)",
            &schema(),
        )
        .unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        op.on_tuple(0, tuple(30.0, 80.0), &mut ctx).unwrap();
        let out = &ctx.emitted()[0];
        assert_eq!(out.values().len(), 3);
        let at = out.get("apparent_temperature").unwrap().as_f64().unwrap();
        assert!(at > 30.0);
        // Original attributes unchanged.
        assert_eq!(out.get("temperature").unwrap(), &Value::Float(30.0));
    }

    #[test]
    fn schema_gains_field_with_expr_type() {
        let op = VirtualPropertyOp::new("hot", "temperature > 25", &schema()).unwrap();
        let out = op.output_schema();
        let f = out.field("hot").unwrap();
        assert_eq!(f.ty, AttrType::Bool);
        assert_eq!(op.property(), "hot");
        assert_eq!(op.spec(), "temperature > 25");
    }

    #[test]
    fn duplicate_property_rejected() {
        assert!(VirtualPropertyOp::new("temperature", "1", &schema()).is_err());
    }

    #[test]
    fn bad_spec_rejected() {
        assert!(VirtualPropertyOp::new("x", "missing_attr + 1", &schema()).is_err());
        assert!(VirtualPropertyOp::new("x", "(((", &schema()).is_err());
    }

    #[test]
    fn chained_virtual_properties() {
        let op1 = VirtualPropertyOp::new(
            "at",
            "apparent_temperature(temperature, humidity)",
            &schema(),
        )
        .unwrap();
        // Second property can reference the first.
        let op2 = VirtualPropertyOp::new("feels_hotter", "at > temperature", &op1.output_schema())
            .unwrap();
        let mut ctx = OpContext::new(Timestamp::from_secs(0));
        let mut op1 = op1;
        let mut op2 = op2;
        op1.on_tuple(0, tuple(30.0, 90.0), &mut ctx).unwrap();
        let (mid, _) = ctx.take();
        let mut ctx2 = OpContext::new(Timestamp::from_secs(0));
        op2.on_tuple(0, mid.into_iter().next().unwrap(), &mut ctx2)
            .unwrap();
        assert_eq!(
            ctx2.emitted()[0].get("feels_hotter").unwrap(),
            &Value::Bool(true)
        );
    }
}
