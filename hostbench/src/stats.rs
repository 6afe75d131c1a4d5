//! Order statistics and a minimal JSON value for the report.

use std::fmt;

/// Median of a sorted slice (mean of the middle two for even lengths).
pub fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    median_sorted(&s)
}

/// Latency distribution of one measured window.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub samples: usize,
    pub p50_ms: f64,
    /// The highest percentile with at least [`TAIL_BEYOND`] samples above it.
    pub tail_ms: f64,
    /// Which percentile `tail_ms` is (nearest rank).
    pub tail_percentile: f64,
}

/// Samples a tail estimate must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

impl Latency {
    pub fn from_ns(lat_ns: &[u64]) -> Latency {
        let mut ms: Vec<f64> = lat_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        let n = ms.len();
        let (tail_ms, tail_percentile) = if n > TAIL_BEYOND {
            let rank = n - TAIL_BEYOND;
            (ms[rank - 1], 100.0 * rank as f64 / n as f64)
        } else {
            (ms.last().copied().unwrap_or(0.0), 100.0)
        };
        Latency {
            samples: n,
            p50_ms: median_sorted(&ms),
            tail_ms,
            tail_percentile,
        }
    }

    pub fn json(&self) -> Json {
        Json::obj([
            ("samples", Json::from(self.samples as f64)),
            ("p50_ms", Json::from(self.p50_ms)),
            ("tail_ms", Json::from(self.tail_ms)),
            ("tail_percentile", Json::from(self.tail_percentile)),
        ])
    }
}

/// A JSON value (objects keep insertion order).
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Str(String),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // JSON has no NaN or infinity; a value that is not finite is a
            // benchmark bug, reported as null rather than as invalid JSON.
            Json::Num(v) if !v.is_finite() => f.write_str("null"),
            Json::Num(v) if v.fract() == 0.0 && v.abs() < 1e15 => write!(f, "{}", *v as i64),
            Json::Num(v) => write!(f, "{v}"),
            Json::Str(s) => write_str(f, s),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}
