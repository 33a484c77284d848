//! The builtin function library.
//!
//! Covers the transformation needs the paper enumerates (requirement §2):
//! unit-of-measure conversion, geographical coordinate conversion, virtual
//! properties computed from other attributes (the apparent-temperature
//! running example), and validation rules (date-pattern conformance) — plus
//! the general math/string/time helpers a condition language needs.
//!
//! Each builtin has a *signature check* (used by the static type checker
//! before deployment) and an *evaluator* (the per-tuple path).

use crate::error::ExprError;
use crate::typecheck::ExprType;
use sl_stt::{AttrType, CoordinateSystem, GeoPoint, Timestamp, Unit, Value};

/// The `matches` glob, shared with the broker's sensor-name filter.
pub use sl_obs::text::glob_match;

/// Static description of one builtin.
struct Sig {
    /// Minimum number of arguments.
    min: usize,
    /// Maximum number of arguments (`usize::MAX` = variadic).
    max: usize,
}

fn arity_err(name: &str, sig: &Sig, found: usize) -> ExprError {
    let expected = if sig.min == sig.max {
        sig.min.to_string()
    } else if sig.max == usize::MAX {
        format!("at least {}", sig.min)
    } else {
        format!("{}..={}", sig.min, sig.max)
    };
    ExprError::Arity {
        function: name.to_string(),
        expected,
        found,
    }
}

fn sig_of(name: &str) -> Option<Sig> {
    let (min, max) = match name {
        "pi" | "nan" | "inf" => (0, 0),
        "abs" | "sqrt" | "exp" | "ln" | "floor" | "ceil" | "round" | "is_null" | "lower"
        | "upper" | "trim" | "length" | "to_int" | "to_float" | "to_str" | "time" | "hour"
        | "minute" | "day_of_week" | "epoch_ms" | "lat" | "lon" => (1, 1),
        "pow" | "contains" | "starts_with" | "ends_with" | "matches" | "is_valid_date" | "geo"
        | "distance_m" => (2, 2),
        "convert_unit" | "if" => (3, 3),
        "convert_coords" => (4, 4),
        "min" | "max" | "concat" | "coalesce" => (1, usize::MAX),
        "apparent_temperature" => (2, 2),
        _ => return None,
    };
    Some(Sig { min, max })
}

/// Static type of `name(args)`, or an error if the name is unknown, the
/// arity is wrong, or the argument types don't fit.
pub fn check(name: &str, args: &[ExprType]) -> Result<ExprType, ExprError> {
    let sig = sig_of(name).ok_or_else(|| ExprError::UnknownFunction(name.to_string()))?;
    if args.len() < sig.min || args.len() > sig.max {
        return Err(arity_err(name, &sig, args.len()));
    }
    let require = |i: usize, pred: fn(AttrType) -> bool, what: &str| -> Result<(), ExprError> {
        match args[i] {
            ExprType::Null => Ok(()),
            ExprType::Exact(t) if pred(t) => Ok(()),
            ExprType::Exact(t) => Err(ExprError::Type {
                message: format!("argument {} of `{name}` must be {what}, found {t}", i + 1),
            }),
        }
    };
    let numeric = |t: AttrType| t.is_numeric();
    let stringy = |t: AttrType| t == AttrType::Str;
    let timey = |t: AttrType| t == AttrType::Time;
    let geoy = |t: AttrType| t == AttrType::Geo;
    let exact = |t: AttrType| ExprType::Exact(t);

    match name {
        "pi" | "nan" | "inf" => Ok(exact(AttrType::Float)),
        "abs" => {
            require(0, numeric, "numeric")?;
            Ok(args[0])
        }
        "sqrt" | "exp" | "ln" | "floor" | "ceil" | "round" => {
            require(0, numeric, "numeric")?;
            Ok(exact(AttrType::Float))
        }
        "pow" => {
            require(0, numeric, "numeric")?;
            require(1, numeric, "numeric")?;
            Ok(exact(AttrType::Float))
        }
        "min" | "max" => {
            for i in 0..args.len() {
                require(i, numeric, "numeric")?;
            }
            // Result is Int only if every argument is Int.
            if args
                .iter()
                .all(|a| matches!(a, ExprType::Exact(AttrType::Int)))
            {
                Ok(exact(AttrType::Int))
            } else {
                Ok(exact(AttrType::Float))
            }
        }
        "apparent_temperature" => {
            require(0, numeric, "numeric")?;
            require(1, numeric, "numeric")?;
            Ok(exact(AttrType::Float))
        }
        "convert_unit" => {
            require(0, numeric, "numeric")?;
            require(1, stringy, "a unit name string")?;
            require(2, stringy, "a unit name string")?;
            Ok(exact(AttrType::Float))
        }
        "convert_coords" => {
            require(0, numeric, "numeric")?;
            require(1, numeric, "numeric")?;
            require(2, stringy, "a coordinate-system name")?;
            require(3, stringy, "a coordinate-system name")?;
            Ok(exact(AttrType::Geo))
        }
        "geo" => {
            require(0, numeric, "numeric")?;
            require(1, numeric, "numeric")?;
            Ok(exact(AttrType::Geo))
        }
        "lat" | "lon" => {
            require(0, geoy, "geo")?;
            Ok(exact(AttrType::Float))
        }
        "distance_m" => {
            require(0, geoy, "geo")?;
            require(1, geoy, "geo")?;
            Ok(exact(AttrType::Float))
        }
        "lower" | "upper" | "trim" => {
            require(0, stringy, "a string")?;
            Ok(exact(AttrType::Str))
        }
        "length" => {
            require(0, stringy, "a string")?;
            Ok(exact(AttrType::Int))
        }
        "contains" | "starts_with" | "ends_with" | "matches" => {
            require(0, stringy, "a string")?;
            require(1, stringy, "a string")?;
            Ok(exact(AttrType::Bool))
        }
        "is_valid_date" => {
            require(0, stringy, "a string")?;
            require(1, stringy, "a pattern string")?;
            Ok(exact(AttrType::Bool))
        }
        "concat" => Ok(exact(AttrType::Str)),
        "coalesce" => {
            // Result type: first exact argument type; all exact args must agree.
            let mut result = ExprType::Null;
            for a in args {
                match (result, a) {
                    (ExprType::Null, t) => result = *t,
                    (ExprType::Exact(r), ExprType::Exact(t)) if r != *t => {
                        // Allow Int/Float mixing, widening to Float.
                        if r.is_numeric() && t.is_numeric() {
                            result = exact(AttrType::Float);
                        } else {
                            return Err(ExprError::Type {
                                message: format!("coalesce arguments mix {r} and {t}"),
                            });
                        }
                    }
                    _ => {}
                }
            }
            Ok(result)
        }
        "is_null" => Ok(exact(AttrType::Bool)),
        "if" => {
            require(0, |t| t == AttrType::Bool, "a boolean")?;
            match (args[1], args[2]) {
                (ExprType::Null, t) | (t, ExprType::Null) => Ok(t),
                (ExprType::Exact(a), ExprType::Exact(b)) if a == b => Ok(exact(a)),
                (ExprType::Exact(a), ExprType::Exact(b)) if a.is_numeric() && b.is_numeric() => {
                    Ok(exact(AttrType::Float))
                }
                (ExprType::Exact(a), ExprType::Exact(b)) => Err(ExprError::Type {
                    message: format!("if() branches have different types: {a} vs {b}"),
                }),
            }
        }
        "to_int" => Ok(exact(AttrType::Int)),
        "to_float" => Ok(exact(AttrType::Float)),
        "to_str" => Ok(exact(AttrType::Str)),
        "time" => {
            require(0, numeric, "numeric epoch milliseconds")?;
            Ok(exact(AttrType::Time))
        }
        "hour" | "minute" | "day_of_week" | "epoch_ms" => {
            require(0, timey, "a time")?;
            Ok(exact(AttrType::Int))
        }
        _ => Err(ExprError::UnknownFunction(name.to_string())),
    }
}

/// Evaluate `name(args)` on concrete values.
///
/// Null handling: unless stated otherwise, a null argument makes the result
/// null (strict functions). `coalesce`, `is_null` and `if` are non-strict.
pub fn call(name: &str, args: &[Value]) -> Result<Value, ExprError> {
    let sig = sig_of(name).ok_or_else(|| ExprError::UnknownFunction(name.to_string()))?;
    if args.len() < sig.min || args.len() > sig.max {
        return Err(arity_err(name, &sig, args.len()));
    }

    // Non-strict builtins first.
    match name {
        "coalesce" => {
            return Ok(args
                .iter()
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(Value::Null));
        }
        "is_null" => return Ok(Value::Bool(args[0].is_null())),
        "if" => {
            return match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Bool(true) => Ok(args[1].clone()),
                Value::Bool(false) => Ok(args[2].clone()),
                other => Err(ExprError::Stt(sl_stt::SttError::TypeMismatch {
                    expected: "Bool".into(),
                    found: other.type_name().into(),
                })),
            };
        }
        "concat" => {
            let mut s = String::new();
            for a in args {
                if !a.is_null() {
                    s.push_str(&a.to_string());
                }
            }
            return Ok(Value::Str(s));
        }
        _ => {}
    }

    // Strict: any null argument yields null.
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }

    match name {
        "pi" => Ok(Value::Float(std::f64::consts::PI)),
        "nan" => Ok(Value::Float(f64::NAN)),
        "inf" => Ok(Value::Float(f64::INFINITY)),
        "abs" => match &args[0] {
            Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
            v => Ok(Value::Float(v.as_f64()?.abs())),
        },
        "sqrt" => Ok(Value::Float(args[0].as_f64()?.sqrt())),
        "exp" => Ok(Value::Float(args[0].as_f64()?.exp())),
        "ln" => Ok(Value::Float(args[0].as_f64()?.ln())),
        "floor" => Ok(Value::Float(args[0].as_f64()?.floor())),
        "ceil" => Ok(Value::Float(args[0].as_f64()?.ceil())),
        "round" => Ok(Value::Float(args[0].as_f64()?.round())),
        "pow" => Ok(Value::Float(args[0].as_f64()?.powf(args[1].as_f64()?))),
        "min" | "max" => {
            if args.iter().all(|a| matches!(a, Value::Int(_))) {
                let it = args.iter().filter_map(|a| a.as_i64().ok());
                let v = if name == "min" { it.min() } else { it.max() };
                // `None` only for no arguments, which the arity check rejects.
                return Ok(v.map_or(Value::Null, Value::Int));
            }
            let mut best = args[0].as_f64()?;
            for a in &args[1..] {
                let x = a.as_f64()?;
                best = if name == "min" {
                    best.min(x)
                } else {
                    best.max(x)
                };
            }
            Ok(Value::Float(best))
        }
        "apparent_temperature" => {
            let t = args[0].as_f64()?;
            let rh = args[1].as_f64()?;
            Ok(Value::Float(apparent_temperature(t, rh)))
        }
        "convert_unit" => {
            let v = args[0].as_f64()?;
            let from = Unit::parse(args[1].as_str()?)?;
            let to = Unit::parse(args[2].as_str()?)?;
            Ok(Value::Float(from.convert(v, to)?))
        }
        "convert_coords" => {
            let a = args[0].as_f64()?;
            let b = args[1].as_f64()?;
            let from = CoordinateSystem::parse(args[2].as_str()?)?;
            let to = CoordinateSystem::parse(args[3].as_str()?)?;
            // Produce a WGS84 GeoPoint positioned where (a, b) in `from`
            // lands in `to`-interpreted-as-geodetic; for geodetic targets
            // this is simply the converted pair.
            let (x, y) = from.convert(a, b, to)?;
            match to {
                CoordinateSystem::WebMercator => {
                    // Store projected coordinates back as a geodetic point is
                    // meaningless; return the WGS84 equivalent instead.
                    Ok(Value::Geo(from.to_point(a, b)?))
                }
                _ => Ok(Value::Geo(GeoPoint::new(x, y)?)),
            }
        }
        "geo" => Ok(Value::Geo(GeoPoint::new(
            args[0].as_f64()?,
            args[1].as_f64()?,
        )?)),
        "lat" => Ok(Value::Float(args[0].as_geo()?.lat)),
        "lon" => Ok(Value::Float(args[0].as_geo()?.lon)),
        "distance_m" => Ok(Value::Float(
            args[0].as_geo()?.haversine_distance_m(&args[1].as_geo()?),
        )),
        "lower" => Ok(Value::Str(args[0].as_str()?.to_lowercase())),
        "upper" => Ok(Value::Str(args[0].as_str()?.to_uppercase())),
        "trim" => Ok(Value::Str(args[0].as_str()?.trim().to_string())),
        "length" => Ok(Value::Int(args[0].as_str()?.chars().count() as i64)),
        "contains" => Ok(Value::Bool(args[0].as_str()?.contains(args[1].as_str()?))),
        "starts_with" => Ok(Value::Bool(
            args[0].as_str()?.starts_with(args[1].as_str()?),
        )),
        "ends_with" => Ok(Value::Bool(args[0].as_str()?.ends_with(args[1].as_str()?))),
        "matches" => Ok(Value::Bool(glob_match(
            args[1].as_str()?,
            args[0].as_str()?,
        ))),
        "is_valid_date" => Ok(Value::Bool(is_valid_date(
            args[0].as_str()?,
            args[1].as_str()?,
        ))),
        "to_int" => match &args[0] {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(x) => Ok(Value::Int(*x as i64)),
            Value::Bool(b) => Ok(Value::Int(i64::from(*b))),
            Value::Str(s) => Ok(s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Null)),
            Value::Time(t) => Ok(Value::Int(t.as_millis())),
            v => Err(ExprError::Stt(sl_stt::SttError::TypeMismatch {
                expected: "convertible to Int".into(),
                found: v.type_name().into(),
            })),
        },
        "to_float" => match &args[0] {
            Value::Str(s) => Ok(s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .unwrap_or(Value::Null)),
            v => Ok(Value::Float(v.as_f64()?)),
        },
        "to_str" => Ok(Value::Str(args[0].to_string())),
        "time" => Ok(Value::Time(
            Timestamp::from_millis(args[0].as_f64()? as i64),
        )),
        "hour" => Ok(Value::Int(i64::from(args[0].as_time()?.time_of_day().0))),
        "minute" => Ok(Value::Int(i64::from(args[0].as_time()?.time_of_day().1))),
        "day_of_week" => {
            // 0 = Monday … 6 = Sunday; 1970-01-01 was a Thursday (index 3).
            let days = args[0].as_time()?.as_millis().div_euclid(86_400_000);
            Ok(Value::Int((days + 3).rem_euclid(7)))
        }
        "epoch_ms" => Ok(Value::Int(args[0].as_time()?.as_millis())),
        _ => Err(ExprError::UnknownFunction(name.to_string())),
    }
}

/// Australian Bureau of Meteorology apparent-temperature approximation
/// (simplified, no wind term): `AT = T + 0.33·e − 4.0`, where the water
/// vapour pressure `e = rh/100 · 6.105 · exp(17.27·T / (237.7 + T))`.
///
/// This is the paper's running example of a *virtual property* computed from
/// temperature and humidity (paper §2).
pub fn apparent_temperature(t_celsius: f64, rh_percent: f64) -> f64 {
    let e = rh_percent / 100.0 * 6.105 * (17.27 * t_celsius / (237.7 + t_celsius)).exp();
    t_celsius + 0.33 * e - 4.0
}

/// Check that `text` conforms to a date `pattern` built from placeholder
/// runs `YYYY`, `MM`, `DD`, `hh`, `mm`, `ss` and literal separators, with a
/// semantic check of the field ranges (month 1–12, day valid for the month,
/// hour < 24, minute/second < 60).
///
/// Implements the paper's validation-rule example: "dates conforming to
/// given patterns" (requirement §2).
pub fn is_valid_date(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let mut ti = 0usize;
    let mut pi = 0usize;
    let mut year: Option<i64> = None;
    let mut month: Option<i64> = None;
    let mut day: Option<i64> = None;
    let mut hour: Option<i64> = None;
    let mut minute: Option<i64> = None;
    let mut second: Option<i64> = None;
    while pi < p.len() {
        let c = p[pi];
        if matches!(c, 'Y' | 'M' | 'D' | 'h' | 'm' | 's') {
            let mut run = 0;
            while pi < p.len() && p[pi] == c {
                run += 1;
                pi += 1;
            }
            let mut v: i64 = 0;
            for _ in 0..run {
                match t.get(ti).and_then(|ch| ch.to_digit(10)) {
                    Some(d) => {
                        v = v * 10 + i64::from(d);
                        ti += 1;
                    }
                    None => return false,
                }
            }
            let slot = match c {
                'Y' => &mut year,
                'M' => &mut month,
                'D' => &mut day,
                'h' => &mut hour,
                'm' => &mut minute,
                's' => &mut second,
                _ => unreachable!(),
            };
            *slot = Some(v);
        } else {
            if t.get(ti) != Some(&c) {
                return false;
            }
            ti += 1;
            pi += 1;
        }
    }
    if ti != t.len() {
        return false;
    }
    // Semantic ranges.
    if let Some(m) = month {
        if !(1..=12).contains(&m) {
            return false;
        }
    }
    if let Some(d) = day {
        let max_day = match (year, month) {
            (y, Some(m)) => days_in_month(y.unwrap_or(2000), m),
            _ => 31,
        };
        if !(1..=max_day).contains(&d) {
            return false;
        }
    }
    if let Some(h) = hour {
        if !(0..24).contains(&h) {
            return false;
        }
    }
    if let Some(m) = minute {
        if !(0..60).contains(&m) {
            return false;
        }
    }
    if let Some(s) = second {
        if !(0..60).contains(&s) {
            return false;
        }
    }
    true
}

fn days_in_month(year: i64, month: i64) -> i64 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
            if leap {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(name: &str, args: &[Value]) -> Value {
        call(name, args).unwrap()
    }

    #[test]
    fn math_builtins() {
        assert_eq!(f("abs", &[Value::Int(-3)]), Value::Int(3));
        assert_eq!(f("abs", &[Value::Float(-2.5)]), Value::Float(2.5));
        assert_eq!(f("sqrt", &[Value::Float(9.0)]), Value::Float(3.0));
        assert_eq!(
            f("pow", &[Value::Int(2), Value::Int(10)]),
            Value::Float(1024.0)
        );
        assert_eq!(f("floor", &[Value::Float(2.7)]), Value::Float(2.0));
        assert_eq!(f("ceil", &[Value::Float(2.1)]), Value::Float(3.0));
        assert_eq!(f("round", &[Value::Float(2.5)]), Value::Float(3.0));
    }

    #[test]
    fn min_max_int_preserving() {
        assert_eq!(
            f("min", &[Value::Int(3), Value::Int(1), Value::Int(2)]),
            Value::Int(1)
        );
        assert_eq!(
            f("max", &[Value::Int(3), Value::Float(4.5)]),
            Value::Float(4.5)
        );
    }

    #[test]
    fn strict_null_propagation() {
        assert_eq!(f("abs", &[Value::Null]), Value::Null);
        assert_eq!(f("pow", &[Value::Int(2), Value::Null]), Value::Null);
    }

    #[test]
    fn non_strict_builtins() {
        assert_eq!(
            f("coalesce", &[Value::Null, Value::Int(5), Value::Int(9)]),
            Value::Int(5)
        );
        assert_eq!(f("coalesce", &[Value::Null, Value::Null]), Value::Null);
        assert_eq!(f("is_null", &[Value::Null]), Value::Bool(true));
        assert_eq!(f("is_null", &[Value::Int(0)]), Value::Bool(false));
        assert_eq!(
            f(
                "if",
                &[
                    Value::Bool(true),
                    Value::Str("a".into()),
                    Value::Str("b".into())
                ]
            ),
            Value::Str("a".into())
        );
        assert_eq!(
            f("if", &[Value::Bool(false), Value::Int(1), Value::Int(2)]),
            Value::Int(2)
        );
        assert_eq!(
            f(
                "concat",
                &[Value::Str("a".into()), Value::Null, Value::Int(3)]
            ),
            Value::Str("a3".into())
        );
    }

    #[test]
    fn apparent_temperature_behaviour() {
        // At 30 °C and high humidity it feels hotter; in dry air cooler.
        let humid = apparent_temperature(30.0, 80.0);
        let dry = apparent_temperature(30.0, 10.0);
        assert!(humid > 30.0, "humid {humid}");
        assert!(dry < 30.0, "dry {dry}");
        // Monotone in humidity.
        assert!(apparent_temperature(25.0, 70.0) > apparent_temperature(25.0, 30.0));
    }

    #[test]
    fn unit_conversion_builtin() {
        let v = f(
            "convert_unit",
            &[
                Value::Float(100.0),
                Value::Str("yd".into()),
                Value::Str("m".into()),
            ],
        );
        assert_eq!(v, Value::Float(91.44));
        // Incompatible quantities error out.
        assert!(call(
            "convert_unit",
            &[
                Value::Float(1.0),
                Value::Str("celsius".into()),
                Value::Str("m".into())
            ]
        )
        .is_err());
        // Unknown unit errors out.
        assert!(call(
            "convert_unit",
            &[
                Value::Float(1.0),
                Value::Str("cubit".into()),
                Value::Str("m".into())
            ]
        )
        .is_err());
    }

    #[test]
    fn geo_builtins() {
        let osaka = f("geo", &[Value::Float(34.6937), Value::Float(135.5023)]);
        let kyoto = f("geo", &[Value::Float(35.0116), Value::Float(135.7681)]);
        let d = f("distance_m", &[osaka.clone(), kyoto]).as_f64().unwrap();
        assert!((40_000.0..50_000.0).contains(&d));
        assert!((f("lat", std::slice::from_ref(&osaka)).as_f64().unwrap() - 34.6937).abs() < 1e-9);
        assert!((f("lon", &[osaka]).as_f64().unwrap() - 135.5023).abs() < 1e-9);
        assert!(call("geo", &[Value::Float(99.0), Value::Float(0.0)]).is_err());
    }

    #[test]
    fn coordinate_conversion_builtin() {
        let v = f(
            "convert_coords",
            &[
                Value::Float(34.6937),
                Value::Float(135.5023),
                Value::Str("tokyo".into()),
                Value::Str("wgs84".into()),
            ],
        );
        let g = v.as_geo().unwrap();
        assert!((g.lat - 34.6937).abs() < 0.02);
        assert!((g.lon - 135.5023).abs() < 0.02);
    }

    #[test]
    fn string_builtins() {
        assert_eq!(
            f("lower", &[Value::Str("OSAKA".into())]),
            Value::Str("osaka".into())
        );
        assert_eq!(
            f("upper", &[Value::Str("rain".into())]),
            Value::Str("RAIN".into())
        );
        assert_eq!(
            f("trim", &[Value::Str("  x ".into())]),
            Value::Str("x".into())
        );
        assert_eq!(f("length", &[Value::Str("日本語".into())]), Value::Int(3));
        assert_eq!(
            f(
                "contains",
                &[Value::Str("heavy rain".into()), Value::Str("rain".into())]
            ),
            Value::Bool(true)
        );
        assert_eq!(
            f(
                "starts_with",
                &[
                    Value::Str("weather/rain".into()),
                    Value::Str("weather".into())
                ]
            ),
            Value::Bool(true)
        );
        assert_eq!(
            f(
                "ends_with",
                &[Value::Str("osaka-1".into()), Value::Str("-1".into())]
            ),
            Value::Bool(true)
        );
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("*rain*", "torrential rain warning"));
        assert!(glob_match("osaka-?", "osaka-1"));
        assert!(!glob_match("osaka-?", "osaka-10"));
        assert!(glob_match("*", ""));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
        assert!(glob_match("a*b*c", "axxbyyc"));
        assert!(!glob_match("a*b*c", "axxbyy"));
        assert!(glob_match("**", "anything"));
    }

    #[test]
    fn date_validation() {
        assert!(is_valid_date("2016-03-15", "YYYY-MM-DD"));
        assert!(!is_valid_date("2016-13-15", "YYYY-MM-DD")); // month 13
        assert!(!is_valid_date("2016-02-30", "YYYY-MM-DD")); // Feb 30
        assert!(is_valid_date("2016-02-29", "YYYY-MM-DD")); // 2016 is leap
        assert!(!is_valid_date("2015-02-29", "YYYY-MM-DD")); // 2015 is not
        assert!(is_valid_date("15/03/2016 23:59:59", "DD/MM/YYYY hh:mm:ss"));
        assert!(!is_valid_date("15/03/2016 24:00:00", "DD/MM/YYYY hh:mm:ss"));
        assert!(!is_valid_date("2016-03-15extra", "YYYY-MM-DD"));
        assert!(!is_valid_date("2016-3-15", "YYYY-MM-DD")); // single digit month
        assert!(!is_valid_date("abcd-ef-gh", "YYYY-MM-DD"));
    }

    #[test]
    fn time_builtins() {
        let t = Value::Time(Timestamp::from_civil(2016, 3, 15, 9, 45, 0));
        assert_eq!(f("hour", std::slice::from_ref(&t)), Value::Int(9));
        assert_eq!(f("minute", std::slice::from_ref(&t)), Value::Int(45));
        // 2016-03-15 was a Tuesday (Monday=0 → 1).
        assert_eq!(f("day_of_week", std::slice::from_ref(&t)), Value::Int(1));
        let ms = f("epoch_ms", std::slice::from_ref(&t)).as_i64().unwrap();
        assert_eq!(f("time", &[Value::Int(ms)]), t);
    }

    #[test]
    fn conversions() {
        assert_eq!(f("to_int", &[Value::Float(3.9)]), Value::Int(3));
        assert_eq!(f("to_int", &[Value::Str("42".into())]), Value::Int(42));
        assert_eq!(f("to_int", &[Value::Str("x".into())]), Value::Null);
        assert_eq!(f("to_float", &[Value::Int(2)]), Value::Float(2.0));
        assert_eq!(f("to_str", &[Value::Int(7)]), Value::Str("7".into()));
    }

    #[test]
    fn arity_errors() {
        assert!(matches!(call("abs", &[]), Err(ExprError::Arity { .. })));
        assert!(matches!(
            call("abs", &[Value::Int(1), Value::Int(2)]),
            Err(ExprError::Arity { .. })
        ));
        assert!(matches!(
            call("nosuch", &[]),
            Err(ExprError::UnknownFunction(_))
        ));
    }

    #[test]
    fn check_signatures() {
        use ExprType::*;
        let float = Exact(AttrType::Float);
        let string = Exact(AttrType::Str);
        assert_eq!(
            check("abs", &[Exact(AttrType::Int)]).unwrap(),
            Exact(AttrType::Int)
        );
        assert_eq!(check("sqrt", &[float]).unwrap(), float);
        assert!(check("sqrt", &[string]).is_err());
        assert_eq!(
            check("convert_unit", &[float, string, string]).unwrap(),
            float
        );
        assert_eq!(check("coalesce", &[Null, float]).unwrap(), float);
        assert_eq!(
            check("coalesce", &[Exact(AttrType::Int), float]).unwrap(),
            Exact(AttrType::Float)
        );
        assert!(check("coalesce", &[string, float]).is_err());
        assert_eq!(
            check("if", &[Exact(AttrType::Bool), string, string]).unwrap(),
            string
        );
        assert!(check("if", &[Exact(AttrType::Bool), string, float]).is_err());
        // Null-typed arguments are accepted anywhere.
        assert_eq!(check("sqrt", &[Null]).unwrap(), float);
    }
}
