//! Result lines, result files, and the `compare` subcommand that holds two
//! sets of runs against the bounds in `metrics.rs`.
//!
//! One JSON shape serves everything: the line the driver reads from
//! stdout, and — with the run's identity added — each line of a result
//! file. No JSON crate resolves offline, so a small value type with a
//! writer and a reader lives here.

use crate::metrics::{reported, Better, END_TO_END, PER_LAYER};
use crate::scenario::WORKLOADS;
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.space();
        if p.at != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            // Shortest representation that reads back exactly: every digit
            // measured, none invented. JSON has no NaN or infinity.
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => write!(f, "0"),
            Json::Str(s) => {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(members) => {
                write!(f, "{{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}: {value}", Json::Str(key.clone()))?;
                }
                write!(f, "}}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.bytes.get(self.at) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                loop {
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !members.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.at));
                    }
                    self.space();
                    let key = self.string()?;
                    self.space();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.at));
                    }
                    members.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.at));
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.at + 1).ok_or("unterminated escape")?;
                    self.at += 2;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4).ok_or("short \\u")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend(code.to_string().bytes());
                            self.at += 4;
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
    }
}

/// The object the driver reads from the last line of stdout: exactly the
/// keys `correct`, `attempted`, `failed`, `metrics`; the metrics are the
/// end-to-end ones of an untraced run, the per-layer ones of a traced run.
pub fn result_line(
    values: &BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    traced: bool,
) -> Json {
    let metrics = reported(traced)
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            let entry = Json::Obj(vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(failed == 0)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

/// A result-file record: the result line plus which run it was.
pub fn file_record(line: &Json, workload: &str, seed: u64, seconds: f64, traced: bool) -> Json {
    let Json::Obj(members) = line else {
        unreachable!("result lines are objects")
    };
    let mut record = vec![
        ("workload".to_string(), Json::Str(workload.to_string())),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("trace".to_string(), Json::Num(f64::from(u8::from(traced)))),
    ];
    record.extend(members.iter().cloned());
    Json::Obj(record)
}

/// The run command BENCHMARK.json gives the driver, which appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seconds one run measures (BENCHMARK.json's `run_seconds`).
pub const RUN_SECONDS: u32 = 10;

/// The contents of `BENCHMARK.json`, generated from the tables in
/// `metrics.rs` and `scenario.rs` so the file cannot drift from the code
/// (`snap-benchmark describe > BENCHMARK.json`; a test compares them).
pub fn describe() -> String {
    let s = |text: &str| Json::Str(text.to_string());
    let list = |items: Vec<Json>| -> String {
        let lines: Vec<String> = items.iter().map(|item| format!("    {item}")).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::Obj(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better.word())),
                ("bound".into(), Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better.word())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Arr(COMMAND.iter().map(|c| s(c)).collect()),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

/// Verdict on one (workload, metric) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The second set is no worse than the first by more than the bound.
    Pass,
    /// It is worse by more than the bound.
    Regression,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot settle it either way.
    Unresolved,
}

/// Judge the second set's values against the first's.
///
/// The medians decide, unless either side's quartile spread is wider than
/// the bound: then the row is unresolved — except when every run of one
/// side is on the same side of every run of the other, which settles it
/// whatever the spread.
pub fn judge(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (a, b) = (median(base), median(change));
    if a == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    let noisy = [base, change]
        .iter()
        .any(|side| side.len() >= 2 && quartile_spread(side) > bound);
    if noisy {
        let beats = |x: f64, y: f64| match better {
            Better::Lower => x < y,
            Better::Higher => x > y,
        };
        if change.iter().all(|&c| base.iter().all(|&p| beats(c, p))) {
            return Verdict::Pass;
        }
        if worse_by > bound && base.iter().all(|&p| change.iter().all(|&c| beats(p, c))) {
            return Verdict::Regression;
        }
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Pass
    }
}

/// The untraced records of a result file (one JSON object per line), as
/// workload → metric → one value per run; the `failed` and `attempted`
/// counts of each run are kept under those two names.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if record.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let metrics = runs.entry(workload.to_string()).or_default();
        for count in ["failed", "attempted"] {
            let value = record.get(count).and_then(Json::num).unwrap_or(0.0);
            metrics.entry(count.to_string()).or_default().push(value);
        }
        if let Some(Json::Obj(entries)) = record.get("metrics") {
            for (name, entry) in entries {
                if let Some(value) = entry.get("value").and_then(Json::num) {
                    metrics.entry(name.clone()).or_default().push(value);
                }
            }
        }
    }
    Ok(runs)
}

/// `compare A B`: one row per (workload, end-to-end metric) with both
/// medians, the ratio with its base, both quartile spreads and the
/// verdict. Returns whether any row regressed.
pub fn compare(base_path: &str, change_path: &str) -> Result<bool, String> {
    let base = load(base_path)?;
    let change = load(change_path)?;
    println!("base   = {base_path}\nchange = {change_path}");
    println!(
        "{:<14} {:<16} {:>3} {:>14} {:>14} {:>17} {:>8} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "n",
        "base median",
        "change median",
        "change/base",
        "spread A",
        "spread B",
        "bound"
    );
    let mut regressed = false;
    for (workload, base_metrics) in &base {
        let Some(change_metrics) = change.get(workload) else {
            println!("{workload:<14} missing from {change_path}: UNRESOLVED");
            continue;
        };
        for metric in &END_TO_END {
            let (Some(a), Some(b)) = (
                base_metrics.get(metric.name),
                change_metrics.get(metric.name),
            ) else {
                continue;
            };
            let verdict = judge(a, b, metric.better, metric.bound);
            regressed |= verdict == Verdict::Regression;
            let spread = |v: &[f64]| {
                if v.len() >= 2 {
                    format!("{:.1}%", 100.0 * quartile_spread(v))
                } else {
                    "n/a".to_string()
                }
            };
            println!(
                "{:<14} {:<16} {:>3} {:>14.4} {:>14.4} {:>10.4} of base {:>8} {:>8} {:>6.0}%  {}",
                workload,
                metric.name,
                a.len().min(b.len()),
                median(a),
                median(b),
                median(b) / median(a),
                spread(a),
                spread(b),
                100.0 * metric.bound,
                match verdict {
                    Verdict::Pass => "PASS",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "UNRESOLVED",
                }
            );
        }
        // Any increase in the failed share fails.
        let share = |metrics: &BTreeMap<String, Vec<f64>>| {
            let sum = |name: &str| metrics.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
            sum("failed") / sum("attempted").max(1.0)
        };
        let (a, b) = (share(base_metrics), share(change_metrics));
        let worse = b > a;
        regressed |= worse;
        println!(
            "{:<14} {:<16} {:>3} {:>14.6} {:>14.6} {:>26} {:>8}  {}",
            workload,
            "failed_share",
            "",
            a,
            b,
            "",
            "0%",
            if worse { "REGRESSION" } else { "PASS" }
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y\n", "d": true, "e": null}}"#;
        let value = Json::parse(text).unwrap();
        assert_eq!(
            value.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-300.0)
            ]))
        );
        assert_eq!(
            value.get("b").unwrap().get("c").unwrap().str(),
            Some("x\"y\n")
        );
        assert_eq!(Json::parse(&value.to_string()).unwrap(), value);
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        // Numbers keep every digit.
        assert_eq!(Json::Num(1.2034567891234).to_string(), "1.2034567891234");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 0.8127);
        let line = result_line(&values, 1000, 0, false);
        let Json::Obj(members) = &line else { panic!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("value"), Some(&Json::Num(0.8127)));
        let Some(Json::Obj(layers)) = result_line(&values, 1, 1, true).get("metrics").cloned()
        else {
            panic!()
        };
        assert_eq!(layers.len(), PER_LAYER.len());
        assert_eq!(
            result_line(&values, 1, 1, true).get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_what_describe_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            describe(),
            "regenerate with `snap-benchmark describe`"
        );
        let parsed = Json::parse(&on_disk).unwrap();
        let Json::Obj(members) = &parsed else {
            panic!()
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(on_disk.len() < 64 * 1024);
    }

    #[test]
    fn judge_follows_medians_unless_the_spread_is_wider_than_the_bound() {
        let tight = [100.0, 101.0, 99.0, 100.5];
        // 3 % worse on a 10 % bound passes, 20 % worse regresses.
        assert_eq!(
            judge(&tight, &[103.0, 104.0, 102.0, 103.5], Better::Lower, 0.1),
            Verdict::Pass
        );
        assert_eq!(
            judge(&tight, &[120.0, 121.0, 119.0, 120.5], Better::Lower, 0.1),
            Verdict::Regression
        );
        // Higher-is-better flips the sign.
        assert_eq!(
            judge(&tight, &[80.0, 81.0, 79.0, 80.5], Better::Higher, 0.1),
            Verdict::Regression
        );
        assert_eq!(
            judge(&tight, &[120.0, 121.0], Better::Higher, 0.1),
            Verdict::Pass
        );
        // A base that itself spreads wider than the bound cannot settle a
        // small difference…
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &[90.0, 110.0, 125.0, 150.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // …unless every run of the change beats every run of the base.
        assert_eq!(
            judge(&noisy, &[50.0, 60.0, 70.0, 75.0], Better::Lower, 0.1),
            Verdict::Pass
        );
        assert_eq!(
            judge(&noisy, &[150.0, 160.0, 170.0, 175.0], Better::Lower, 0.1),
            Verdict::Regression
        );
        // Single runs are judged on their values alone.
        assert_eq!(judge(&[100.0], &[105.0], Better::Lower, 0.1), Verdict::Pass);
    }
}
