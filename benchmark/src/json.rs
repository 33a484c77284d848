//! The benchmark's JSON writer. Strings are escaped by the system's own
//! `obs::json::write_str`, and files are read back with `obs::json::parse`;
//! this adds only what that writer lacks: floats and nesting.

use streamloader::obs::json::{self, Json};

/// A JSON value to write. Objects keep insertion order.
#[derive(Debug, Clone)]
pub enum J {
    Bool(bool),
    /// Written with every digit `f64` needs to round-trip; non-finite
    /// values become `null`.
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
    /// Already-serialized JSON, embedded verbatim.
    Raw(String),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: Vec<(K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn write(&self, out: &mut String) {
        match self {
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
            J::Num(_) => out.push_str("null"),
            J::Str(s) => json::write_str(out, s),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    json::write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
            J::Raw(text) => out.push_str(text.trim()),
        }
    }

    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

/// A number out of a parsed object.
pub fn num(obj: &Json, key: &str) -> Option<f64> {
    match obj.as_obj()?.get(key)? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let doc = J::obj(vec![
            ("correct", J::Bool(true)),
            ("attempted", J::Num(230_400.0)),
            ("latency", J::Num(1.203_456_789_012_3)),
            ("name", J::str("a \"quoted\"\nline")),
            ("nan", J::Num(f64::NAN)),
            (
                "list",
                J::Arr(vec![J::Num(-0.5), J::Raw(" {\"k\": 1} ".into())]),
            ),
        ]);
        let text = doc.to_text();
        assert!(!text.contains('\n'), "one line: {text}");
        let back = json::parse(&text).expect("valid JSON");
        assert_eq!(num(&back, "attempted"), Some(230_400.0));
        assert_eq!(num(&back, "latency"), Some(1.203_456_789_012_3));
        let obj = back.as_obj().unwrap();
        assert_eq!(obj["name"].as_str(), Some("a \"quoted\"\nline"));
        assert_eq!(obj["nan"], Json::Null);
        assert_eq!(obj["correct"], Json::Bool(true));
        let list = obj["list"].as_arr().unwrap();
        assert_eq!(list[0], Json::Num(-0.5));
        assert_eq!(num(&list[1], "k"), Some(1.0));
    }

    #[test]
    fn integers_are_written_without_a_fraction() {
        assert_eq!(J::Num(3200.0).to_text(), "3200");
        assert_eq!(J::Num(0.1 + 0.2).to_text(), "0.30000000000000004");
    }
}
