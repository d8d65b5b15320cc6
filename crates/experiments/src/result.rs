//! Machine-readable experiment results and the golden-snapshot codec.
//!
//! Every figure module returns a [`FigureResult`] alongside its rendered
//! report: a flat, ordered list of named fields. Numeric fields carry a
//! declared relative tolerance; everything else compares exactly. The
//! golden-figure regression tests (`tests/figure_goldens.rs`) serialize
//! these to `tests/goldens/<figure>.golden` with [`FigureResult::to_golden`]
//! and compare re-runs structurally with [`FigureResult::compare`], so a
//! silent drift in clustering, scheduling or the simulator fails with a
//! message naming the exact field that moved.
//!
//! The text format is line-based and diff-friendly:
//!
//! ```text
//! figure fig2
//! num d.agg1.mean_share 0.2124999 tol 1e-9
//! int rendered_fnv 1234567890123
//! text summary.acc_mitigation_after_s 4
//! ```

use std::fmt::Write as _;

/// Default relative tolerance for numeric fields. The simulator is
/// bit-deterministic, so this only has to absorb cross-platform float
/// formatting/libm noise, not run-to-run variance.
pub const DEFAULT_TOL: f64 = 1e-9;

/// A field value: numeric (tolerance-compared), integer or text (exact).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A float, compared within the field's declared relative tolerance.
    Num(f64),
    /// An integer, compared exactly.
    Int(i64),
    /// Free text, compared exactly.
    Text(String),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Num(_) => "num",
            Value::Int(_) => "int",
            Value::Text(_) => "text",
        }
    }
}

/// One named field of a figure's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name (no whitespace; dotted paths by convention).
    pub key: String,
    /// The value.
    pub value: Value,
    /// Relative tolerance for [`Value::Num`] comparison.
    pub tol: f64,
}

/// The machine-readable result of one figure/table regeneration.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// The figure's registry name (`fig2`, `table3`, ...).
    pub figure: String,
    /// Ordered fields.
    pub fields: Vec<Field>,
}

impl FigureResult {
    /// Creates an empty result for `figure`.
    pub fn new(figure: &str) -> Self {
        FigureResult {
            figure: figure.to_string(),
            fields: Vec::new(),
        }
    }

    fn push(&mut self, key: &str, value: Value, tol: f64) {
        debug_assert!(
            !key.is_empty() && !key.contains(char::is_whitespace),
            "field keys must be non-empty and whitespace-free: {key:?}"
        );
        debug_assert!(
            self.fields.iter().all(|f| f.key != key),
            "duplicate field key: {key:?}"
        );
        self.fields.push(Field {
            key: key.to_string(),
            value,
            tol,
        });
    }

    /// Adds a numeric field with the default tolerance.
    pub fn num(&mut self, key: &str, v: f64) {
        self.push(key, Value::Num(v), DEFAULT_TOL);
    }

    /// Adds a numeric field with an explicit relative tolerance.
    pub fn num_tol(&mut self, key: &str, v: f64, tol: f64) {
        self.push(key, Value::Num(v), tol);
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, v: i64) {
        self.push(key, Value::Int(v), 0.0);
    }

    /// Adds a text field (newlines are escaped in the golden encoding).
    pub fn text(&mut self, key: &str, v: &str) {
        self.push(key, Value::Text(v.to_string()), 0.0);
    }

    /// Looks a field up by key.
    pub fn get(&self, key: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.key == key)
    }

    /// Serializes to the golden-snapshot text format. Floats use Rust's
    /// shortest round-trip formatting, so `parse_golden` recovers them
    /// bit-exactly.
    pub fn to_golden(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "figure {}", self.figure);
        for f in &self.fields {
            match &f.value {
                Value::Num(v) => {
                    let _ = writeln!(out, "num {} {:?} tol {:e}", f.key, v, f.tol);
                }
                Value::Int(v) => {
                    let _ = writeln!(out, "int {} {v}", f.key);
                }
                Value::Text(v) => {
                    let _ = writeln!(out, "text {} {}", f.key, escape(v));
                }
            }
        }
        out
    }

    /// Parses the golden-snapshot text format back.
    pub fn parse_golden(text: &str) -> Result<FigureResult, String> {
        let mut lines = text
            .lines()
            .map(str::trim_end)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let header = lines.next().ok_or("empty golden file")?;
        let figure = header
            .strip_prefix("figure ")
            .ok_or_else(|| format!("expected `figure <name>` header, got {header:?}"))?;
        let mut result = FigureResult::new(figure);
        for (i, line) in lines.enumerate() {
            let err = |what: &str| format!("golden line {}: {what}: {line:?}", i + 2);
            let (kind, rest) = line.split_once(' ').ok_or_else(|| err("missing key"))?;
            match kind {
                "num" => {
                    let (key, rest) = rest.split_once(' ').ok_or_else(|| err("missing value"))?;
                    let (raw, tol) = match rest.split_once(" tol ") {
                        Some((raw, tol)) => {
                            (raw, tol.parse::<f64>().map_err(|_| err("unparseable tol"))?)
                        }
                        None => (rest, DEFAULT_TOL),
                    };
                    let v = raw.parse::<f64>().map_err(|_| err("unparseable float"))?;
                    result.num_tol(key, v, tol);
                }
                "int" => {
                    let (key, raw) = rest.split_once(' ').ok_or_else(|| err("missing value"))?;
                    let v = raw.parse::<i64>().map_err(|_| err("unparseable int"))?;
                    result.int(key, v);
                }
                "text" => {
                    let (key, raw) = rest.split_once(' ').ok_or_else(|| err("missing value"))?;
                    result.text(key, &unescape(raw));
                }
                _ => return Err(err("unknown field kind")),
            }
        }
        Ok(result)
    }

    /// Structural comparison: `self` is the golden (expected), `actual`
    /// the fresh run. Returns one human-readable line per drifted,
    /// missing or extra field — empty means the snapshot holds. Numeric
    /// fields pass when within the golden's declared relative tolerance
    /// (with a small absolute floor near zero); everything else must
    /// match exactly.
    pub fn compare(&self, actual: &FigureResult) -> Vec<String> {
        let mut diffs = Vec::new();
        if self.figure != actual.figure {
            diffs.push(format!(
                "figure name changed: golden `{}` vs actual `{}`",
                self.figure, actual.figure
            ));
        }
        for exp in &self.fields {
            let Some(act) = actual.get(&exp.key) else {
                diffs.push(format!("field `{}` missing from the new result", exp.key));
                continue;
            };
            match (&exp.value, &act.value) {
                (Value::Num(e), Value::Num(a)) if !within(*e, *a, exp.tol) => {
                    diffs.push(format!(
                        "field `{}` drifted: golden {e:?} vs actual {a:?} (tol {:e} rel)",
                        exp.key, exp.tol
                    ));
                }
                (Value::Int(e), Value::Int(a)) if e != a => {
                    diffs.push(format!(
                        "field `{}` drifted: golden {e} vs actual {a}",
                        exp.key
                    ));
                }
                (Value::Text(e), Value::Text(a)) if e != a => {
                    diffs.push(format!(
                        "field `{}` drifted: golden {e:?} vs actual {a:?}",
                        exp.key
                    ));
                }
                (e, a) if e.kind() != a.kind() => {
                    diffs.push(format!(
                        "field `{}` changed kind: golden {} vs actual {}",
                        exp.key,
                        e.kind(),
                        a.kind()
                    ));
                }
                _ => {}
            }
        }
        for act in &actual.fields {
            if self.get(&act.key).is_none() {
                diffs.push(format!("new field `{}` not in the golden", act.key));
            }
        }
        diffs
    }
}

fn within(expected: f64, actual: f64, tol: f64) -> bool {
    if expected == actual || (expected.is_nan() && actual.is_nan()) {
        return true;
    }
    let scale = expected.abs().max(actual.abs());
    (expected - actual).abs() <= tol * scale + 1e-12
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// The mean/min/max aggregate of numeric fields across several same-figure
/// results (one per seed) — the `--seeds` summary block. Non-numeric
/// fields are skipped; fields are reported in the first result's order.
pub fn aggregate_csv(results: &[&FigureResult]) -> String {
    let mut out = String::from("field,mean,min,max\n");
    let Some(first) = results.first() else {
        return out;
    };
    for field in &first.fields {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| match r.get(&field.key).map(|f| &f.value) {
                Some(Value::Num(v)) => Some(*v),
                Some(Value::Int(v)) => Some(*v as f64),
                _ => None,
            })
            .collect();
        if values.is_empty() || field.key == "rendered_fnv" {
            continue;
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let _ = writeln!(out, "{},{mean},{min},{max}", field.key);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureResult {
        let mut r = FigureResult::new("figX");
        r.num("a.mean", 0.123456789123);
        r.num_tol("b.loose", 10.0, 1e-2);
        r.int("count", 42);
        r.text("status", "never");
        r.text("multi", "line one\nline two\\slash");
        r
    }

    #[test]
    fn golden_round_trips_bit_exactly() {
        let r = sample();
        let parsed = FigureResult::parse_golden(&r.to_golden()).unwrap();
        assert_eq!(parsed, r);
        assert!(r.compare(&parsed).is_empty());
    }

    #[test]
    fn drift_is_reported_per_field() {
        let golden = sample();
        let mut actual = sample();
        actual.fields[0].value = Value::Num(0.125);
        actual.fields[2].value = Value::Int(43);
        let diffs = golden.compare(&actual);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].contains("a.mean"), "{}", diffs[0]);
        assert!(diffs[1].contains("count"), "{}", diffs[1]);
    }

    #[test]
    fn tolerance_absorbs_small_noise_only() {
        let golden = sample();
        let mut actual = sample();
        actual.fields[1].value = Value::Num(10.05); // within 1e-2 rel
        assert!(golden.compare(&actual).is_empty());
        actual.fields[1].value = Value::Num(10.5); // outside
        assert_eq!(golden.compare(&actual).len(), 1);
    }

    #[test]
    fn missing_extra_and_kind_changes_are_caught() {
        let golden = sample();
        let mut actual = sample();
        actual.fields.remove(3); // drop "status"
        actual.num("fresh", 1.0);
        actual.fields[2].value = Value::Text("42".into()); // kind change
        let diffs = golden.compare(&actual);
        assert_eq!(diffs.len(), 3, "{diffs:?}");
        assert!(diffs.iter().any(|d| d.contains("missing")));
        assert!(diffs.iter().any(|d| d.contains("not in the golden")));
        assert!(diffs.iter().any(|d| d.contains("changed kind")));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(FigureResult::parse_golden("").is_err());
        assert!(FigureResult::parse_golden("nope").is_err());
        assert!(FigureResult::parse_golden("figure x\nnum k abc tol 1e-9").is_err());
        assert!(FigureResult::parse_golden("figure x\nblob k 1").is_err());
    }

    #[test]
    fn aggregate_reports_mean_min_max() {
        let mut a = FigureResult::new("f");
        a.num("x", 1.0);
        a.int("n", 10);
        a.text("t", "hi");
        let mut b = FigureResult::new("f");
        b.num("x", 3.0);
        b.int("n", 20);
        b.text("t", "hi");
        let csv = aggregate_csv(&[&a, &b]);
        assert!(csv.contains("x,2,1,3"), "{csv}");
        assert!(csv.contains("n,15,10,20"), "{csv}");
        assert!(!csv.contains("t,"), "{csv}");
    }
}
