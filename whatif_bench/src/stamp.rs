//! The machine descriptor stamped on every result, and the digests the
//! benchmark prints (record bytes, source tree).

use netline::Json;
use std::path::Path;
use std::process::Command;

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds `line` followed by a newline separator.
    pub fn line(&mut self, line: &str) {
        self.bytes(line.as_bytes());
        self.bytes(b"\n");
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// First line of `program args…`'s standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// Digest of the sources the benchmark builds (`*.rs`, `Cargo.toml`,
/// `Cargo.lock` under the checkout, skipping build outputs and dot
/// directories): identifies the code when the checkout is not a git
/// repository.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            if path.is_dir() {
                walk(&path, files);
            } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut digest = Digest::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        digest.line(&rel.to_string_lossy());
        digest.bytes(&std::fs::read(&file).unwrap_or_default());
    }
    digest.hex()
}

/// `nproc`, `rustc -V`, build profile, git revision and source digest of
/// the checkout at `root`.
pub fn machine(root: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let unavailable = || "unavailable".to_string();
    Json::obj(vec![
        ("nproc", Json::Int(nproc as i64)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unavailable)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_rev",
            // Only where the working directory is a repository root: git
            // would otherwise report whatever repository encloses it.
            Json::Str(
                root.join(".git")
                    .exists()
                    .then(|| command_line("git", &["rev-parse", "HEAD"]))
                    .flatten()
                    .unwrap_or_else(unavailable),
            ),
        ),
        ("source_digest", Json::Str(source_digest(root))),
    ])
}
