//! Process and host counters read from `/proc`, plus the run's identity.

use std::fs;
use std::path::Path;

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, 100 on
/// every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

fn field_after(text: &str, label: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(label))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Process CPU time (user + system, all threads) in milliseconds, from
/// `/proc/self/stat`.
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields.get(11..13).map_or(0, |f| f.iter().filter_map(|v| v.parse::<u64>().ok()).sum());
    ticks as f64 * 1000.0 / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    field_after(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Bytes this process has handed to `write()` and its kin (`wchar`).
pub fn wchar() -> u64 {
    let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
    field_after(&io, "wchar:").unwrap_or(0)
}

/// The host's cumulative CPU-steal ticks over all CPUs (`/proc/stat`).
pub fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the run was built from: git's `HEAD` when the checkout is
/// a git repository, otherwise `none` and an FNV-1a digest of the
/// program's sources, which tells two builds of different code apart.
pub fn commit() -> String {
    if let Some(head) = git_head(Path::new(".git")) {
        return head;
    }
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files.iter().chain([Path::new("Cargo.lock").to_path_buf()].iter()) {
        for byte in fs::read(file).unwrap_or_default() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("none (sources fnv {hash:016x})")
}

fn git_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_owned()) };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find(|l| l.ends_with(reference)).map(|l| l[..l.len().min(40)].to_owned())
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
