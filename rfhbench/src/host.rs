//! What the harness reads about its host and its own process (Linux
//! `/proc`), and the host block recorded with every result file.

use std::path::Path;
use std::process::Command;

use rfh::rfhd::Json;

/// Peak resident set size of this process (`VmHWM`), kB.
pub fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads and connections of load: `min(nproc, 2)`.
pub fn jobs() -> usize {
    nproc().min(2)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of the repository at `root`, with `+dirty` when the work
/// tree has changes, or `unknown` outside a git checkout.
pub fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    let head = command_line("git", &["rev-parse", "HEAD"], root);
    let dirty = command_line("git", &["status", "--porcelain"], root);
    match (head, dirty) {
        (Some(head), Some(dirty)) if !dirty.is_empty() => format!("{head}+dirty"),
        (Some(head), _) => head,
        _ => "unknown".into(),
    }
}

/// The host block: where and how a result was measured.
pub fn block(root: &Path, reps: usize, seed: u64, seconds: f64) -> Json {
    Json::Obj(vec![
        ("nproc".into(), Json::u64(nproc() as u64)),
        ("jobs".into(), Json::u64(jobs() as u64)),
        ("reps".into(), Json::u64(reps as u64)),
        ("seed".into(), Json::u64(seed)),
        ("seconds".into(), Json::Num(seconds)),
        (
            "rustc".into(),
            Json::str(command_line("rustc", &["-V"], root).unwrap_or_else(|| "unknown".into())),
        ),
        ("commit".into(), Json::str(commit(root))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_kb().expect("VmHWM") > 0);
    }
}
