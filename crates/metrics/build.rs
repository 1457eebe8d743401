//! Embed the git revision so run artifacts can carry provenance. The
//! build must keep working from a source tarball, so failure to run git
//! degrades to "unknown" rather than breaking the build.

use std::path::Path;
use std::process::Command;

fn main() {
    let rev = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PHANTOM_GIT_REV={rev}");
    let git = Path::new("../../.git");
    println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
    // On a branch HEAD holds `ref: refs/heads/<name>` and stays put on a
    // commit; the branch's ref file, or `packed-refs` once git packs it,
    // is what moves. Watch whichever exist (cargo reruns on every build
    // for a watched path that is missing). A `.git` file (a worktree)
    // keeps the HEAD-only watch.
    if git.is_dir() {
        let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
        let named = head.strip_prefix("ref: ").map(|r| git.join(r.trim()));
        for path in named.into_iter().chain([git.join("packed-refs")]) {
            if path.is_file() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
    }
}
