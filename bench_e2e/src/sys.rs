//! Host facts and the process's own memory high-water mark.

use std::path::Path;

/// Peak resident set size of this process in KiB (`VmHWM`), when the
/// platform reports one.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Hand freed heap pages back to the kernel, so memory the process no
/// longer uses stops counting as resident.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only walks the allocator's own free
        // lists; it takes no pointers from us.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Reset the `VmHWM` high-water mark to the current RSS (Linux
/// `clear_refs` value 5). Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `"release"` or `"debug"`: the profile this binary was built with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let git = Path::new(".git");
    commit_with(|name| std::fs::read_to_string(git.join(name)).ok())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolve `HEAD` through `read`, which returns a file under `.git`.
fn commit_with(read: impl Fn(&str) -> Option<String>) -> Option<String> {
    let head = read("HEAD")?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Some(hash) = read(reference) {
        return Some(hash.trim().to_string());
    }
    read("packed-refs")?.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_readable_and_resettable_on_linux() {
        if !Path::new("/proc/self/status").exists() {
            return;
        }
        let before = peak_rss_kib().expect("VmHWM present on linux");
        assert!(before > 0);
        release_freed_memory();
        if reset_peak_rss() {
            assert!(peak_rss_kib().expect("VmHWM present") <= before);
        }
    }

    #[test]
    fn commit_reads_detached_and_symbolic_heads() {
        use std::collections::BTreeMap;
        let resolve = |files: &[(&str, &str)]| {
            let files: BTreeMap<&str, &str> = files.iter().copied().collect();
            commit_with(|name| files.get(name).map(|s| s.to_string()))
        };
        assert_eq!(resolve(&[]), None);
        assert_eq!(resolve(&[("HEAD", "ref: refs/heads/main\n")]), None);
        assert_eq!(
            resolve(&[
                ("HEAD", "ref: refs/heads/main\n"),
                ("packed-refs", "abc123 refs/heads/main\n"),
            ])
            .as_deref(),
            Some("abc123")
        );
        assert_eq!(
            resolve(&[
                ("HEAD", "ref: refs/heads/main\n"),
                ("refs/heads/main", "def456\n"),
            ])
            .as_deref(),
            Some("def456")
        );
        assert_eq!(
            resolve(&[("HEAD", "0123abcd\n")]).as_deref(),
            Some("0123abcd")
        );
    }
}
