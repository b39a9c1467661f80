//! A minimal hand-rolled JSON writer.
//!
//! The build environment has no `serde_json`, and the workspace's bench
//! files already emit JSON with `std::fmt::Write` by hand; this module
//! centralizes the escaping and the map/array plumbing so the exporter in
//! [`crate::MetricsSnapshot::to_json`] stays readable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append `s` as a JSON string literal (quotes included) to `out`: the
/// workspace's one JSON string escaper.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Comma/indent bookkeeping for one JSON object whose members are written
/// incrementally: `key()` emits the separator, indentation and the quoted
/// key, the caller then writes the value into `out()`, and `finish()`
/// closes the object.
pub(crate) struct JsonMap<'a> {
    out: &'a mut String,
    indent: usize,
    first: bool,
}

impl<'a> JsonMap<'a> {
    /// A map writer at `indent` levels (two spaces each). The caller has
    /// already written the opening `{` and a newline.
    pub(crate) fn new(out: &'a mut String, indent: usize) -> JsonMap<'a> {
        JsonMap {
            out,
            indent,
            first: true,
        }
    }

    /// Begin the member named `name`: separator, indentation, quoted key
    /// and `: `.
    pub(crate) fn key(&mut self, name: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        write_str(self.out, name);
        self.out.push_str(": ");
    }

    /// The underlying buffer, for writing the member's value.
    pub(crate) fn out(&mut self) -> &mut String {
        self.out
    }

    /// Close the object with `close` on its own line (or inline when no
    /// member was written).
    pub(crate) fn finish(self, close: &str) {
        if !self.first {
            self.out.push('\n');
            for _ in 0..self.indent.saturating_sub(1) {
                self.out.push_str("  ");
            }
        }
        self.out.push_str(close);
    }
}

/// Write a `{"name": value, ...}` object of unsigned integers.
pub(crate) fn write_u64_map(out: &mut String, map: &BTreeMap<String, u64>, indent: usize) {
    if map.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    let mut m = JsonMap::new(out, indent);
    for (k, v) in map {
        m.key(k);
        let _ = write!(m.out(), "{v}");
    }
    m.finish("}");
}

/// Write a `{"name": value, ...}` object of signed integers.
pub(crate) fn write_i64_map(out: &mut String, map: &BTreeMap<String, i64>, indent: usize) {
    if map.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    let mut m = JsonMap::new(out, indent);
    for (k, v) in map {
        m.key(k);
        let _ = write!(m.out(), "{v}");
    }
    m.finish("}");
}

/// Write a `{"label": value, ...}` object from `(label, value)` pairs,
/// preserving their order.
pub(crate) fn write_u64_pairs(out: &mut String, pairs: &[(String, u64)], indent: usize) {
    if pairs.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    let mut m = JsonMap::new(out, indent);
    for (k, v) in pairs {
        m.key(k);
        let _ = write!(m.out(), "{v}");
    }
    m.finish("}");
}

/// Write a `["a", "b", ...]` array of strings inline.
pub(crate) fn write_str_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(out, s);
    }
    out.push(']');
}
