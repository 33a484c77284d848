//! Parser for the canonical DSN textual form (see [`crate::printer`]),
//! on the shared [`sl_obs::text::Cursor`].

use crate::ast::{
    ChannelDecl, DsnDocument, ServiceDecl, SinkDecl, SinkKind, SourceDecl, SourceMode,
};
use crate::error::DsnError;
use sl_netsim::QosSpec;
use sl_obs::text::{unescape_quotes, Cursor};
use sl_ops::{AggFunc, OpSpec};
use sl_pubsub::{SensorKind, SubscriptionFilter};
use sl_stt::{AttrType, BoundingBox, Duration, GeoPoint, Theme, TimeInterval, Timestamp};

/// Parse a DSN document from text.
pub fn parse_document(src: &str) -> Result<DsnDocument, DsnError> {
    let mut c = Cursor::new(src);
    expect(&mut c, "dsn")?;
    let name = read_dq_string(&mut c)?;
    expect(&mut c, "{")?;
    let mut doc = DsnDocument::new(&name);
    loop {
        c.skip_ws(COMMENT);
        if c.eat(b'}') {
            break;
        }
        let kw = read_ident(&mut c)?;
        match kw {
            "source" => {
                let name = read_ident(&mut c)?;
                let props = read_block(&mut c)?;
                doc.sources.push(build_source(name, props, c.line())?);
            }
            "service" => {
                let name = read_ident(&mut c)?;
                let props = read_block(&mut c)?;
                doc.services.push(build_service(name, props, c.line())?);
            }
            "sink" => {
                let name = read_ident(&mut c)?;
                let props = read_block(&mut c)?;
                doc.sinks.push(build_sink(name, props, c.line())?);
            }
            "channel" => {
                let from = read_ident(&mut c)?;
                expect(&mut c, "->")?;
                let to = read_ident(&mut c)?;
                let props = read_block(&mut c)?;
                doc.channels.push(build_channel(from, to, props, c.line())?);
            }
            other => {
                return Err(err(
                    &c,
                    format!("expected source/service/sink/channel, found `{other}`"),
                ));
            }
        }
    }
    c.skip_ws(COMMENT);
    if !c.at_end() {
        return Err(err(&c, "trailing content after closing `}`".into()));
    }
    Ok(doc)
}

// ---------------------------------------------------------------------------
// Tokens, on the shared cursor
// ---------------------------------------------------------------------------

type Props = Vec<(String, String, usize)>; // key, raw value, line

/// `#` starts a comment that runs to the end of its line.
const COMMENT: Option<u8> = Some(b'#');

fn err(c: &Cursor, message: String) -> DsnError {
    perr(c.line(), message)
}

fn expect(c: &mut Cursor, token: &str) -> Result<(), DsnError> {
    c.skip_ws(COMMENT);
    if c.eat_str(token) {
        Ok(())
    } else {
        Err(err(c, format!("expected `{token}`")))
    }
}

fn read_ident<'a>(c: &mut Cursor<'a>) -> Result<&'a str, DsnError> {
    c.skip_ws(COMMENT);
    let ident = c.take_while(|b| b.is_ascii_alphanumeric() || b"_-./".contains(&b));
    if ident.is_empty() {
        return Err(err(c, "expected an identifier".into()));
    }
    Ok(ident)
}

/// A `"…"` string, in which `\"` and `\\` stand for `"` and `\` and any
/// other backslash is kept.
fn read_dq_string(c: &mut Cursor) -> Result<String, DsnError> {
    c.skip_ws(COMMENT);
    if !c.eat(b'"') {
        return Err(err(c, "expected a double-quoted string".into()));
    }
    let mut out = String::new();
    loop {
        match c.bump() {
            None => return Err(err(c, "unterminated string".into())),
            Some('"') => return Ok(out),
            Some('\\') => match c.bump() {
                Some(e @ ('"' | '\\')) => out.push(e),
                Some(e) => {
                    out.push('\\');
                    out.push(e);
                }
                None => return Err(err(c, "unterminated escape".into())),
            },
            Some(ch) => out.push(ch),
        }
    }
}

/// A `{ key: value; ... }` block, values raw (quotes respected).
fn read_block(c: &mut Cursor) -> Result<Props, DsnError> {
    expect(c, "{")?;
    let mut props = Vec::new();
    loop {
        c.skip_ws(COMMENT);
        if c.eat(b'}') {
            return Ok(props);
        }
        let key = read_ident(c)?.to_string();
        expect(c, ":")?;
        let line = c.line();
        props.push((key, read_raw_value(c)?, line));
    }
}

/// Raw property value: everything up to the terminating `;`, skipping
/// over single-quoted segments.
fn read_raw_value(c: &mut Cursor) -> Result<String, DsnError> {
    c.skip_ws(COMMENT);
    let start = c.pos();
    loop {
        c.take_while(|b| b != b';' && b != b'\'');
        match c.peek() {
            None => return Err(err(c, "unterminated property (missing `;`)".into())),
            Some(b';') => {
                let raw = c.since(start).trim().to_string();
                c.bump();
                return Ok(raw);
            }
            Some(b'\'') => {
                if c.quoted().is_none() {
                    return Err(err(c, "unterminated quoted value".into()));
                }
            }
            Some(_) => {
                c.bump();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Declaration builders
// ---------------------------------------------------------------------------

fn perr(line: usize, message: String) -> DsnError {
    DsnError::Parse { line, message }
}

fn take<'p>(props: &'p Props, key: &str) -> Option<&'p (String, String, usize)> {
    props.iter().find(|(k, _, _)| k == key)
}

fn require<'p>(props: &'p Props, key: &str, line: usize) -> Result<&'p str, DsnError> {
    take(props, key)
        .map(|(_, v, _)| v.as_str())
        .ok_or_else(|| perr(line, format!("missing required property `{key}`")))
}

/// Strip single quotes from a quoted value (or return it raw).
fn unquote(v: &str) -> String {
    let v = v.trim();
    match v.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')) {
        Some(body) => unescape_quotes(body),
        None => v.to_string(),
    }
}

/// Split on top-level commas: a comma in a quoted segment is text.
fn split_commas(v: &str) -> Vec<&str> {
    let mut c = Cursor::new(v);
    let (mut parts, mut start) = (Vec::new(), 0);
    while let Some(b) = c.peek() {
        if b == b'\'' {
            c.quoted();
            continue;
        }
        if b == b',' {
            parts.push(c.since(start).trim());
            start = c.pos() + 1;
        }
        c.bump();
    }
    let last = c.since(start).trim();
    if !last.is_empty() {
        parts.push(last);
    }
    parts
}

fn parse_u64(v: &str, what: &str, line: usize) -> Result<u64, DsnError> {
    v.trim()
        .parse::<u64>()
        .map_err(|_| perr(line, format!("`{v}` is not a valid {what}")))
}

fn parse_f64(v: &str, what: &str, line: usize) -> Result<f64, DsnError> {
    v.trim()
        .parse::<f64>()
        .map_err(|_| perr(line, format!("`{v}` is not a valid {what}")))
}

/// Parse `(lat, lon)..(lat, lon)` into a bounding box.
fn parse_box(v: &str, line: usize) -> Result<BoundingBox, DsnError> {
    let parts: Vec<&str> = v.split("..").collect();
    if parts.len() != 2 {
        return Err(perr(
            line,
            format!("`{v}` is not a `(lat, lon)..(lat, lon)` box"),
        ));
    }
    let mut corners = Vec::with_capacity(2);
    for p in parts {
        let p = p.trim();
        let inner = p
            .strip_prefix('(')
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| perr(line, format!("`{p}` is not a `(lat, lon)` pair")))?;
        let nums: Vec<&str> = inner.split(',').collect();
        if nums.len() != 2 {
            return Err(perr(line, format!("`{p}` is not a `(lat, lon)` pair")));
        }
        let lat = parse_f64(nums[0], "latitude", line)?;
        let lon = parse_f64(nums[1], "longitude", line)?;
        corners.push(GeoPoint::new(lat, lon).map_err(|e| perr(line, e.to_string()))?);
    }
    Ok(BoundingBox::from_corners(corners[0], corners[1]))
}

/// Parse a DSN filter expression (the inverse of
/// [`crate::printer::print_filter`]).
pub(crate) fn parse_filter(v: &str, line: usize) -> Result<SubscriptionFilter, DsnError> {
    let v = v.trim();
    if v == "any" {
        return Ok(SubscriptionFilter::any());
    }
    let mut f = SubscriptionFilter::any();
    for part in v.split('&') {
        let part = part.trim();
        if let Some(theme) = part.strip_prefix("theme=") {
            f.theme = Some(Theme::new(theme).map_err(|e| perr(line, e.to_string()))?);
        } else if let Some(area) = part.strip_prefix("area=") {
            f.area = Some(parse_box(area, line)?);
        } else if let Some(kind) = part.strip_prefix("kind=") {
            f.kind = Some(match kind.trim() {
                "physical" => SensorKind::Physical,
                "social" => SensorKind::Social,
                other => return Err(perr(line, format!("unknown sensor kind `{other}`"))),
            });
        } else if let Some(req) = part.strip_prefix("has ") {
            let (name, ty) = req
                .split_once(':')
                .ok_or_else(|| perr(line, format!("`{req}` is not `name:type`")))?;
            let ty = AttrType::parse(ty).map_err(|e| perr(line, e.to_string()))?;
            f.required_attrs.push((name.trim().to_string(), ty));
        } else if let Some(glob) = part.strip_prefix("name~") {
            f.name_glob = Some(glob.trim().to_string());
        } else if let Some(p) = part.strip_prefix("period<=") {
            f.max_period = Some(Duration::from_millis(parse_u64(p, "period", line)?));
        } else if let Some(req) = part.strip_prefix("unit ") {
            let (name, unit) = req
                .split_once('=')
                .ok_or_else(|| perr(line, format!("`{req}` is not `attr=unit`")))?;
            let unit = sl_stt::Unit::parse(unit).map_err(|e| perr(line, e.to_string()))?;
            f.required_units.push((name.trim().to_string(), unit));
        } else {
            return Err(perr(line, format!("unknown filter constraint `{part}`")));
        }
    }
    Ok(f)
}

/// Parse a QoS value (the inverse of [`crate::printer::print_qos`]).
pub(crate) fn parse_qos(v: &str, line: usize) -> Result<QosSpec, DsnError> {
    let v = v.trim();
    if v == "best-effort" {
        return Ok(QosSpec::best_effort());
    }
    let mut q = QosSpec::best_effort();
    for part in v.split(',') {
        let part = part.trim();
        if let Some(l) = part.strip_prefix("latency<=") {
            q.max_latency = Some(Duration::from_millis(parse_u64(l, "latency", line)?));
        } else if let Some(b) = part.strip_prefix("bandwidth>=") {
            q.min_bandwidth_bps = Some(parse_u64(b, "bandwidth", line)?);
        } else {
            return Err(perr(line, format!("unknown QoS constraint `{part}`")));
        }
    }
    Ok(q)
}

fn build_source(name: &str, props: Props, line: usize) -> Result<SourceDecl, DsnError> {
    let filter = parse_filter(require(&props, "filter", line)?, line)?;
    let mode = match take(&props, "mode").map(|(_, v, _)| v.as_str()) {
        None | Some("active") => SourceMode::Active,
        Some("gated") => SourceMode::Gated,
        Some(other) => return Err(perr(line, format!("unknown source mode `{other}`"))),
    };
    Ok(SourceDecl {
        name: name.to_string(),
        filter,
        mode,
    })
}

fn parse_names(v: &str) -> Vec<String> {
    split_commas(v)
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn build_service(name: &str, props: Props, line: usize) -> Result<ServiceDecl, DsnError> {
    let op = require(&props, "op", line)?;
    let period = |key: &str| -> Result<Duration, DsnError> {
        Ok(Duration::from_millis(parse_u64(
            require(&props, key, line)?,
            "period",
            line,
        )?))
    };
    let spec = match op {
        "filter" => OpSpec::Filter {
            condition: unquote(require(&props, "condition", line)?),
        },
        "transform" => {
            let raw = require(&props, "assign", line)?;
            let mut assignments = Vec::new();
            for part in split_commas(raw) {
                let (attr, expr) = part
                    .split_once(":=")
                    .ok_or_else(|| perr(line, format!("`{part}` is not `attr := 'expr'`")))?;
                assignments.push((attr.trim().to_string(), unquote(expr)));
            }
            OpSpec::Transform { assignments }
        }
        "virtual_property" => OpSpec::VirtualProperty {
            property: require(&props, "property", line)?.to_string(),
            spec: unquote(require(&props, "spec", line)?),
        },
        "cull_time" => {
            let raw = require(&props, "interval", line)?;
            let (a, b) = raw
                .split_once("..")
                .ok_or_else(|| perr(line, format!("`{raw}` is not `start..end`")))?;
            let start = a
                .trim()
                .parse::<i64>()
                .map_err(|_| perr(line, format!("bad interval start `{a}`")))?;
            let end = b
                .trim()
                .parse::<i64>()
                .map_err(|_| perr(line, format!("bad interval end `{b}`")))?;
            if end < start {
                return Err(perr(line, "interval end before start".into()));
            }
            OpSpec::CullTime {
                interval: TimeInterval::new(
                    Timestamp::from_millis(start),
                    Timestamp::from_millis(end),
                ),
                rate: parse_u64(require(&props, "rate", line)?, "rate", line)?,
            }
        }
        "cull_space" => OpSpec::CullSpace {
            area: parse_box(require(&props, "area", line)?, line)?,
            rate: parse_u64(require(&props, "rate", line)?, "rate", line)?,
        },
        "aggregate" => OpSpec::Aggregate {
            period: period("period")?,
            group_by: take(&props, "group_by")
                .map(|(_, v, _)| parse_names(v))
                .unwrap_or_default(),
            func: AggFunc::parse(require(&props, "func", line)?)
                .map_err(|e| perr(line, e.to_string()))?,
            attr: take(&props, "attr").map(|(_, v, _)| v.to_string()),
            sliding: match take(&props, "sliding") {
                Some((_, v, l)) => Some(Duration::from_millis(parse_u64(v, "sliding span", *l)?)),
                None => None,
            },
        },
        "join" => OpSpec::Join {
            period: period("period")?,
            predicate: unquote(require(&props, "predicate", line)?),
        },
        "trigger_on" => OpSpec::TriggerOn {
            period: period("period")?,
            condition: unquote(require(&props, "condition", line)?),
            targets: parse_names(require(&props, "targets", line)?),
        },
        "trigger_off" => OpSpec::TriggerOff {
            period: period("period")?,
            condition: unquote(require(&props, "condition", line)?),
            targets: parse_names(require(&props, "targets", line)?),
        },
        other => return Err(perr(line, format!("unknown operation `{other}`"))),
    };
    let inputs = parse_names(require(&props, "inputs", line)?);
    Ok(ServiceDecl {
        name: name.to_string(),
        spec,
        inputs,
    })
}

fn build_sink(name: &str, props: Props, line: usize) -> Result<SinkDecl, DsnError> {
    let kind = SinkKind::parse(require(&props, "kind", line)?)
        .ok_or_else(|| perr(line, "unknown sink kind".into()))?;
    let inputs = parse_names(require(&props, "inputs", line)?);
    Ok(SinkDecl {
        name: name.to_string(),
        kind,
        inputs,
    })
}

fn build_channel(from: &str, to: &str, props: Props, line: usize) -> Result<ChannelDecl, DsnError> {
    let qos = parse_qos(require(&props, "qos", line)?, line)?;
    Ok(ChannelDecl {
        from: from.to_string(),
        to: to.to_string(),
        qos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIO: &str = r#"
dsn "osaka-hot-weather" {
  # Osaka-area temperature sensors.
  source temperature {
    filter: theme=weather/temperature & area=(34.5, 135.3)..(34.9, 135.7);
    mode: active;
  }
  source rain {
    filter: theme=weather/rain & kind=physical;
    mode: gated;
  }
  service hourly_avg {
    op: aggregate; period: 3600000;
    group_by: station;
    func: avg; attr: temperature;
    inputs: temperature;
  }
  service hot {
    op: trigger_on; period: 3600000;
    condition: 'avg_temperature > 25';
    targets: rain;
    inputs: hourly_avg;
  }
  service heavy {
    op: filter;
    condition: 'rain > 10 and station != ''broken''';
    inputs: rain;
  }
  sink edw { kind: warehouse; inputs: heavy; }
  channel temperature -> hourly_avg { qos: latency<=50, bandwidth>=100000; }
  channel rain -> heavy { qos: best-effort; }
}
"#;

    #[test]
    fn parses_scenario_document() {
        let doc = parse_document(SCENARIO).unwrap();
        assert_eq!(doc.name, "osaka-hot-weather");
        assert_eq!(doc.sources.len(), 2);
        assert_eq!(doc.services.len(), 3);
        assert_eq!(doc.sinks.len(), 1);
        assert_eq!(doc.channels.len(), 2);

        let temp = doc.source("temperature").unwrap();
        assert_eq!(temp.mode, SourceMode::Active);
        assert_eq!(
            temp.filter.theme.as_ref().unwrap().as_str(),
            "weather/temperature"
        );
        assert!(temp.filter.area.is_some());

        let rain = doc.source("rain").unwrap();
        assert_eq!(rain.mode, SourceMode::Gated);
        assert_eq!(rain.filter.kind, Some(SensorKind::Physical));

        let agg = doc.service("hourly_avg").unwrap();
        match &agg.spec {
            OpSpec::Aggregate {
                period,
                group_by,
                func,
                attr,
                sliding,
            } => {
                assert_eq!(*sliding, None);
                assert_eq!(*period, Duration::from_hours(1));
                assert_eq!(group_by, &["station".to_string()]);
                assert_eq!(*func, AggFunc::Avg);
                assert_eq!(attr.as_deref(), Some("temperature"));
            }
            other => panic!("{other:?}"),
        }

        let hot = doc.service("hot").unwrap();
        match &hot.spec {
            OpSpec::TriggerOn {
                condition, targets, ..
            } => {
                assert_eq!(condition, "avg_temperature > 25");
                assert_eq!(targets, &["rain".to_string()]);
            }
            other => panic!("{other:?}"),
        }

        // Quote escaping survived.
        let heavy = doc.service("heavy").unwrap();
        match &heavy.spec {
            OpSpec::Filter { condition } => {
                assert_eq!(condition, "rain > 10 and station != 'broken'");
            }
            other => panic!("{other:?}"),
        }

        let qos = doc.qos_for("temperature", "hourly_avg");
        assert_eq!(qos.max_latency, Some(Duration::from_millis(50)));
        assert_eq!(qos.min_bandwidth_bps, Some(100000));
        assert!(doc.qos_for("rain", "heavy").is_best_effort());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "dsn \"x\" {\n  source s {\n    filter: theme=;\n  }\n}";
        match parse_document(bad) {
            Err(DsnError::Parse { line, .. }) => assert!(line >= 3, "line {line}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sliding_aggregate_round_trips() {
        let text = "dsn \"x\" { service s { op: aggregate; period: 60000; sliding: 3600000; func: avg; attr: temperature; inputs: a; } }";
        let doc = parse_document(text).unwrap();
        match &doc.service("s").unwrap().spec {
            OpSpec::Aggregate { sliding, .. } => {
                assert_eq!(*sliding, Some(Duration::from_hours(1)));
            }
            other => panic!("{other:?}"),
        }
        let printed = crate::printer::print_document(&doc);
        assert!(printed.contains("sliding: 3600000;"));
        let again = parse_document(&printed).unwrap();
        assert_eq!(crate::printer::print_document(&again), printed);
    }

    #[test]
    fn rejects_unknown_keyword() {
        assert!(parse_document("dsn \"x\" { gizmo g { } }").is_err());
    }

    #[test]
    fn rejects_missing_required_props() {
        assert!(parse_document("dsn \"x\" { source s { mode: active; } }").is_err());
        assert!(parse_document("dsn \"x\" { service s { op: filter; inputs: a; } }").is_err());
        assert!(parse_document("dsn \"x\" { sink s { inputs: a; } }").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_document("dsn \"x\" { } extra").is_err());
    }

    #[test]
    fn rejects_bad_interval_and_rate() {
        let doc = |body: &str| format!("dsn \"x\" {{ service s {{ {body} inputs: a; }} }}");
        assert!(parse_document(&doc("op: cull_time; interval: 500..100; rate: 2;")).is_err());
        assert!(parse_document(&doc("op: cull_time; interval: abc..100; rate: 2;")).is_err());
        assert!(parse_document(&doc("op: cull_time; interval: 1..100; rate: x;")).is_err());
    }

    #[test]
    fn empty_document_parses() {
        let doc = parse_document("dsn \"empty\" { }").unwrap();
        assert!(doc.sources.is_empty());
        assert!(doc.names().next().is_none());
    }

    #[test]
    fn comments_are_skipped() {
        let doc = parse_document("# heading\ndsn \"x\" { # inline\n }").unwrap();
        assert_eq!(doc.name, "x");
    }

    #[test]
    fn backslash_before_a_multibyte_character_is_kept() {
        let doc = parse_document("dsn \"a\\é\" { }").unwrap();
        assert_eq!(doc.name, "a\\é");
    }

    #[test]
    fn split_commas_respects_quotes() {
        let parts = split_commas("a := 'f(x, y)', b := '1,2'");
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], "a := 'f(x, y)'");
    }

    #[test]
    fn filter_round_trip_via_printer() {
        use crate::printer::print_filter;
        let filters = [
            "any",
            "theme=weather/rain",
            "theme=weather & kind=social",
            "area=(34.5, 135.3)..(34.9, 135.7)",
            "has temperature:float & has station:str",
            "name~osaka-* & period<=30000",
            "theme=weather/temperature & unit temperature=celsius",
        ];
        for src in filters {
            let f = parse_filter(src, 1).unwrap();
            let printed = print_filter(&f);
            let f2 = parse_filter(&printed, 1).unwrap();
            assert_eq!(print_filter(&f2), printed, "for `{src}`");
        }
    }
}
