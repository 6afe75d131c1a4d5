//! Persistent on-disk version-table cache (Nimble-style compilation
//! amortization, PAPERS.md).
//!
//! A table has a priced side, which tuning reproduces exactly for a
//! (device, seed), and an executed side, which the host playoff measured.
//! The cache amortizes both: a warm load runs zero GA generations and zero
//! playoff timings. Entries are keyed by (device fingerprint, kernel-space
//! version hash, tuner seed, [`HostKey`]) in the file name; the header
//! repeats the key and a stale or corrupt file is ignored with a typed
//! [`CacheError`] and re-tuned.
//!
//! Format (v2): a versioned line-oriented text file. After the header come
//! the priced `gemm`/`conv` lines, then one `exec` line per (family,
//! class): the executed choice and both playoff medians. `f64` values are
//! stored as the hex of their IEEE bits so a round-trip is exact. Writes
//! go to a temporary file in the same directory followed by an atomic
//! rename, so concurrent readers only ever observe complete files. A v1
//! file has no host in its name, so v1 and v2 readers never read or
//! replace each other's entries.

use crate::{Family, Playoff, VersionTable};
use sod2_device::{DeviceProfile, ShapeClass};
use sod2_kernels::{ConvLoopOrder, ConvParams, GemmParams, LoopOrder, MicroKernel};
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic + format version; bump when the file layout changes.
const HEADER: &str = "sod2-mvc-cache v2";

/// Typed diagnostic for every way a cache interaction can fail. A load
/// failure is never fatal — the caller re-tunes — but the reason is
/// surfaced (CLI provenance, `mvc.cache_miss` counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// Filesystem-level failure (open/read/write/rename).
    Io {
        /// Path involved.
        path: String,
        /// OS error description.
        msg: String,
    },
    /// The file exists but does not parse as a version table.
    Parse {
        /// Path involved.
        path: String,
        /// 1-based line of the first anomaly.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The file parses but was produced under a different key (device,
    /// space version, or seed) — a stale entry.
    Stale {
        /// Path involved.
        path: String,
        /// Header field that disagreed.
        field: &'static str,
        /// Expected value (from the requested key).
        want: String,
        /// Value found in the file.
        got: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, msg } => write!(f, "cache io error at {path}: {msg}"),
            CacheError::Parse { path, line, msg } => {
                write!(f, "corrupt cache file {path} (line {line}): {msg}")
            }
            CacheError::Stale {
                path,
                field,
                want,
                got,
            } => {
                write!(
                    f,
                    "stale cache file {path}: {field} is {got}, expected {want}"
                )
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Where a loaded version table came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Loaded from the on-disk cache; zero GA generations ran.
    Hit,
    /// Tuned from scratch (no usable cache entry).
    Miss,
    /// Caching disabled (`SOD2_MVC_CACHE=off` or no directory).
    Disabled,
}

impl Provenance {
    /// Stable token for CLI/JSON output.
    pub fn token(self) -> &'static str {
        match self {
            Provenance::Hit => "hit",
            Provenance::Miss => "miss",
            Provenance::Disabled => "disabled",
        }
    }
}

/// Outcome of a [`VersionTable::load_or_tune`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheStatus {
    /// Hit / miss / disabled.
    pub provenance: Provenance,
    /// Typed diagnostic when an existing entry was ignored (corrupt or
    /// stale) and the table was re-tuned.
    pub rejected: Option<CacheError>,
    /// Typed diagnostic when writing the freshly tuned table failed (the
    /// table itself is still valid).
    pub write_error: Option<CacheError>,
    /// The cache file consulted, when caching was enabled.
    pub path: Option<PathBuf>,
}

/// Resolves the cache directory: `SOD2_MVC_CACHE` overrides (with
/// `0`/`off`/`none`/empty disabling the cache entirely); otherwise
/// `<workspace target>/sod2-cache`, where the target directory is found by
/// walking up from the current directory.
pub fn cache_dir() -> Option<PathBuf> {
    match std::env::var("SOD2_MVC_CACHE") {
        Ok(v) => {
            let v = v.trim().to_string();
            if v.is_empty()
                || v == "0"
                || v.eq_ignore_ascii_case("off")
                || v.eq_ignore_ascii_case("none")
            {
                None
            } else {
                Some(PathBuf::from(v))
            }
        }
        Err(_) => {
            let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            loop {
                let cand = dir.join("target");
                if cand.is_dir() {
                    return Some(cand.join("sod2-cache"));
                }
                if !dir.pop() {
                    return Some(PathBuf::from("target").join("sod2-cache"));
                }
            }
        }
    }
}

/// A short, filesystem-safe fingerprint of the device profile: the salient
/// model inputs hashed so a profile change invalidates cached tables.
pub fn device_fingerprint(profile: &DeviceProfile) -> String {
    let mut name: String = profile
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    name = name.trim_matches('-').replace("--", "-");
    let desc = format!(
        "{:?}|{:x}|{:x}|{:x}|{:x}",
        profile.kind,
        profile.flops_per_sec.to_bits(),
        profile.mem_bandwidth.to_bits(),
        profile.cache_bytes,
        profile.base_efficiency.to_bits(),
    );
    format!("{name}-{:08x}", fnv1a(desc.as_bytes()) & 0xffff_ffff)
}

/// FNV-1a over bytes — stable across platforms and runs.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a playoff's outcome depends on besides the table itself. Kernel
/// speed differs across these, so entries measured under one key never
/// decide execution under another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostKey {
    /// `std::env::consts::ARCH`.
    pub(crate) arch: String,
    /// The CPU model name from `/proc/cpuinfo`, or `unknown`.
    pub(crate) cpu: String,
    /// The pool width (`sod2_pool::max_threads()`). A variant's edge over
    /// the default shifts with it, and processes of different widths may
    /// share one cache directory.
    pub(crate) threads: usize,
    /// Whether the kernels were built with debug assertions, whose
    /// timings say nothing about an optimized build's.
    pub(crate) debug: bool,
}

impl HostKey {
    /// The key of this process. Read once and cached, like the pool
    /// width it includes.
    pub fn current() -> HostKey {
        static KEY: std::sync::OnceLock<HostKey> = std::sync::OnceLock::new();
        KEY.get_or_init(|| {
            let cpu = std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|info| {
                    info.lines()
                        .filter_map(|l| l.split_once(':'))
                        .find(|(k, _)| k.trim() == "model name")
                        .map(|(_, v)| v.split_whitespace().collect::<Vec<_>>().join(" "))
                })
                .filter(|m| !m.is_empty())
                .unwrap_or_else(|| "unknown".to_string());
            HostKey {
                arch: std::env::consts::ARCH.to_string(),
                cpu,
                threads: sod2_pool::max_threads(),
                debug: cfg!(debug_assertions),
            }
        })
        .clone()
    }

    /// The header form: every field, readable.
    pub fn line(&self) -> String {
        format!(
            "{} w{} {} {}",
            self.arch,
            self.threads,
            self.build(),
            self.cpu
        )
    }

    /// The file-name form: the header form's fields, with the CPU model
    /// hashed.
    pub fn token(&self) -> String {
        format!(
            "{}-w{}-{}-{:08x}",
            self.arch,
            self.threads,
            self.build(),
            fnv1a(self.cpu.as_bytes()) & 0xffff_ffff
        )
    }

    fn build(&self) -> &'static str {
        if self.debug {
            "debug"
        } else {
            "release"
        }
    }
}

/// The cache file for a (device, space, seed, host) key inside `dir`.
pub fn cache_file(
    dir: &Path,
    profile: &DeviceProfile,
    space_hash: u64,
    seed: u64,
    host: &HostKey,
) -> PathBuf {
    dir.join(format!(
        "vtable-{}-{space_hash:016x}-{seed}-{}.txt",
        device_fingerprint(profile),
        host.token()
    ))
}

fn class_token(class: ShapeClass) -> &'static str {
    match class {
        ShapeClass::Skinny => "skinny",
        ShapeClass::Regular => "regular",
        ShapeClass::Fat => "fat",
    }
}

fn class_from_token(s: &str) -> Option<ShapeClass> {
    ShapeClass::all().into_iter().find(|&c| class_token(c) == s)
}

fn io_err(path: &Path, e: std::io::Error) -> CacheError {
    CacheError::Io {
        path: path.display().to_string(),
        msg: e.to_string(),
    }
}

/// Serializes `table` and atomically installs it at the key's path.
///
/// # Errors
///
/// [`CacheError::Io`] when the directory, temp file, or rename fails.
pub fn store(
    dir: &Path,
    profile: &DeviceProfile,
    space_hash: u64,
    seed: u64,
    host: &HostKey,
    table: &VersionTable,
) -> Result<PathBuf, CacheError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let path = cache_file(dir, profile, space_hash, seed, host);
    let mut body = String::new();
    body.push_str(HEADER);
    body.push('\n');
    body.push_str(&format!("device {}\n", device_fingerprint(profile)));
    body.push_str(&format!("space {space_hash:016x}\n"));
    body.push_str(&format!("seed {seed}\n"));
    body.push_str(&format!("host {}\n", host.line()));
    body.push_str(&format!(
        "base_efficiency {:016x}\n",
        table.base_efficiency.to_bits()
    ));
    for class in ShapeClass::all() {
        let (g, eff) = table.gemm_version(class);
        body.push_str(&format!(
            "gemm {} {} {} {} {} {} {} {:016x}\n",
            class_token(class),
            g.tile_m,
            g.tile_n,
            g.tile_k,
            g.unroll,
            g.loop_order.token(),
            g.micro.token(),
            eff.to_bits()
        ));
    }
    for class in ShapeClass::all() {
        let (c, eff) = table.conv_version(class);
        body.push_str(&format!(
            "conv {} {} {} {} {:016x}\n",
            class_token(class),
            c.block_oc,
            c.tile_w,
            c.loop_order.token(),
            eff.to_bits()
        ));
    }
    for class in ShapeClass::all() {
        for family in Family::ALL {
            if let Some(p) = table.playoff(family, class) {
                body.push_str(&format!(
                    "exec {} {} {} {:016x} {:016x}\n",
                    family.token(),
                    class_token(class),
                    p.executed(),
                    p.tuned_ms.to_bits(),
                    p.default_ms.to_bits()
                ));
            }
        }
    }
    // Unique temp name per process+writer so concurrent tuners never step
    // on each other's partial writes; the rename is atomic, so readers see
    // either the old complete file or the new complete file.
    static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = dir.join(format!(
        ".{}.tmp-{}-{}",
        path.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("vtable"),
        std::process::id(),
        WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let write = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
        Ok(())
    };
    write().map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, &path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err(&path, e)
    })?;
    Ok(path)
}

/// Loads and validates the cache entry for the key.
///
/// # Errors
///
/// [`CacheError::Io`] when the file is unreadable, [`CacheError::Parse`]
/// when it is corrupt (including an `exec` line whose choice disagrees
/// with its medians under the margin rule), [`CacheError::Stale`] when
/// its header disagrees with the requested key.
pub fn load(
    dir: &Path,
    profile: &DeviceProfile,
    space_hash: u64,
    seed: u64,
    host: &HostKey,
) -> Result<VersionTable, CacheError> {
    let path = cache_file(dir, profile, space_hash, seed, host);
    let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
    let pstr = path.display().to_string();
    // Non-UTF-8 content is corruption, not an I/O condition — callers
    // treat Io as "no entry" but must see garbage as a Parse diagnostic.
    let text = String::from_utf8(bytes).map_err(|_| CacheError::Parse {
        path: pstr.clone(),
        line: 1,
        msg: "not valid UTF-8".into(),
    })?;
    let parse_err = |line: usize, msg: String| CacheError::Parse {
        path: pstr.clone(),
        line,
        msg,
    };
    let mut lines = text.lines().enumerate();
    let mut header = |field: &'static str, want: String| -> Result<(), CacheError> {
        let (i, l) = lines
            .next()
            .ok_or_else(|| parse_err(0, format!("missing {field} line")))?;
        let got = if field == "magic" {
            l.to_string()
        } else {
            let mut it = l.split_whitespace();
            let key = it.next().unwrap_or("");
            if key != field {
                return Err(parse_err(
                    i + 1,
                    format!("expected `{field}`, found `{key}`"),
                ));
            }
            it.collect::<Vec<_>>().join(" ")
        };
        if got != want {
            return Err(CacheError::Stale {
                path: pstr.clone(),
                field,
                want,
                got,
            });
        }
        Ok(())
    };
    header("magic", HEADER.to_string())?;
    header("device", device_fingerprint(profile))?;
    header("space", format!("{space_hash:016x}"))?;
    header("seed", format!("{seed}"))?;
    header("host", host.line())?;

    let f64_bits = |i: usize, s: &str| -> Result<f64, CacheError> {
        u64::from_str_radix(s, 16)
            .map(f64::from_bits)
            .map_err(|_| parse_err(i + 1, format!("bad f64 bits `{s}`")))
    };
    let usize_of = |i: usize, s: &str| -> Result<usize, CacheError> {
        s.parse::<usize>()
            .map_err(|_| parse_err(i + 1, format!("bad integer `{s}`")))
    };

    let (i, l) = lines
        .next()
        .ok_or_else(|| parse_err(0, "missing base_efficiency line".into()))?;
    let base_efficiency = match l.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["base_efficiency", bits] => f64_bits(i, bits)?,
        _ => return Err(parse_err(i + 1, "expected `base_efficiency <bits>`".into())),
    };
    if base_efficiency.to_bits() != profile.base_efficiency.to_bits() {
        return Err(CacheError::Stale {
            path: pstr.clone(),
            field: "base_efficiency",
            want: format!("{:016x}", profile.base_efficiency.to_bits()),
            got: format!("{:016x}", base_efficiency.to_bits()),
        });
    }

    let mut versions: HashMap<ShapeClass, (GemmParams, f64)> = HashMap::new();
    let mut conv_versions: HashMap<ShapeClass, (ConvParams, f64)> = HashMap::new();
    let mut playoffs: HashMap<(Family, ShapeClass), Playoff> = HashMap::new();
    for (i, l) in lines {
        let toks: Vec<&str> = l.split_whitespace().collect();
        if toks.is_empty() {
            continue;
        }
        match toks.as_slice() {
            ["gemm", class, tm, tn, tk, u, order, micro, bits] => {
                let class = class_from_token(class)
                    .ok_or_else(|| parse_err(i + 1, format!("bad class `{class}`")))?;
                let params = GemmParams {
                    tile_m: usize_of(i, tm)?,
                    tile_n: usize_of(i, tn)?,
                    tile_k: usize_of(i, tk)?,
                    unroll: usize_of(i, u)?,
                    loop_order: LoopOrder::from_token(order)
                        .ok_or_else(|| parse_err(i + 1, format!("bad loop order `{order}`")))?,
                    micro: MicroKernel::from_token(micro)
                        .ok_or_else(|| parse_err(i + 1, format!("bad micro kernel `{micro}`")))?,
                };
                if versions
                    .insert(class, (params, f64_bits(i, bits)?))
                    .is_some()
                {
                    return Err(parse_err(i + 1, format!("duplicate gemm class `{l}`")));
                }
            }
            ["conv", class, bo, tw, order, bits] => {
                let class = class_from_token(class)
                    .ok_or_else(|| parse_err(i + 1, format!("bad class `{class}`")))?;
                let params = ConvParams {
                    block_oc: usize_of(i, bo)?,
                    tile_w: usize_of(i, tw)?,
                    loop_order: ConvLoopOrder::from_token(order)
                        .ok_or_else(|| parse_err(i + 1, format!("bad conv order `{order}`")))?,
                };
                if conv_versions
                    .insert(class, (params, f64_bits(i, bits)?))
                    .is_some()
                {
                    return Err(parse_err(i + 1, format!("duplicate conv class `{l}`")));
                }
            }
            ["exec", family, class, executed, tuned_bits, default_bits] => {
                let family = Family::ALL
                    .into_iter()
                    .find(|f| f.token() == *family)
                    .ok_or_else(|| parse_err(i + 1, format!("bad family `{family}`")))?;
                let class = class_from_token(class)
                    .ok_or_else(|| parse_err(i + 1, format!("bad class `{class}`")))?;
                let p = Playoff::decide(f64_bits(i, tuned_bits)?, f64_bits(i, default_bits)?);
                if *executed != p.executed() {
                    return Err(parse_err(
                        i + 1,
                        format!("executed `{executed}` disagrees with its medians"),
                    ));
                }
                if playoffs.insert((family, class), p).is_some() {
                    return Err(parse_err(i + 1, format!("duplicate exec line `{l}`")));
                }
            }
            _ => return Err(parse_err(i + 1, format!("unrecognized line `{l}`"))),
        }
    }
    if versions.len() != 3 || conv_versions.len() != 3 || playoffs.len() != 6 {
        return Err(CacheError::Parse {
            path: pstr,
            line: text.lines().count(),
            msg: format!(
                "incomplete table: {} gemm + {} conv classes, {} exec lines (want 3 + 3, 6)",
                versions.len(),
                conv_versions.len(),
                playoffs.len()
            ),
        });
    }
    Ok(VersionTable {
        versions,
        conv_versions,
        base_efficiency,
        playoffs,
    })
}
