//! Minimal JSON value + renderer (the `serde_json` stand-in of DESIGN.md
//! §6 — the build environment is offline). Every JSON document the
//! workspace writes — run reports, telemetry snapshots, the experiment
//! binaries' `--json` output — is built as a [`Json`] value and rendered
//! here; only `JsonlRecorder`'s fixed-shape event lines are formatted in
//! place, to keep the per-event hot path allocation-free.
//!
//! Objects preserve insertion order so rendered reports read in the order
//! the producer assembled them (stage order, table order).

use std::fmt::Write as _;

/// A JSON value. Counters keep 64-bit precision via [`Json::U64`];
/// non-finite floats render as `null` (JSON has no NaN/∞).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Fetch a field of an object (linear scan; reports are small).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_with_escaping() {
        let v = Json::obj(vec![
            ("name", Json::str("a \"b\"\n\t\\")),
            ("count", Json::U64(u64::MAX)),
            ("pi", Json::Num(1.5)),
            ("bad", Json::Num(f64::NAN)),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(
            v.render(),
            "{\"name\":\"a \\\"b\\\"\\n\\t\\\\\",\"count\":18446744073709551615,\
             \"pi\":1.5,\"bad\":null,\"arr\":[null,true]}"
        );
    }

    #[test]
    fn object_field_lookup() {
        let v = Json::obj(vec![("a", Json::U64(1)), ("b", Json::U64(2))]);
        assert_eq!(v.get("b"), Some(&Json::U64(2)));
        assert_eq!(v.get("c"), None);
        assert_eq!(Json::Null.get("a"), None);
    }

    #[test]
    fn control_chars_escape_as_unicode() {
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"");
    }
}
