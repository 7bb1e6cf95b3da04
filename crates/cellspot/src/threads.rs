//! The `CELLSPOT_THREADS` knob: pin the global rayon pool to a fixed
//! width. Reproducible benchmarking needs a known thread count even
//! though results never depend on it. (Stage wall-clock is not kept
//! here: every pipeline stage reports a `cellobs` span.)

/// Environment variable naming a fixed rayon thread count. Unset or
/// unparsable means rayon's default (one thread per logical core).
pub const THREADS_ENV: &str = "CELLSPOT_THREADS";

/// Where a resolved thread count came from. The precedence is shared by
/// every subcommand of the `cellspot` CLI and the `repro` harness:
/// **flag > environment > auto**.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadsChoice {
    /// `--threads N` was given (and positive): it wins outright.
    Flag(usize),
    /// `CELLSPOT_THREADS=N` was set to a positive integer and no flag
    /// overrode it.
    Env(usize),
    /// Neither knob was usable: rayon's default width (one thread per
    /// logical core).
    Auto,
}

impl ThreadsChoice {
    /// The explicit width to pin, `None` for auto.
    pub fn pinned(&self) -> Option<usize> {
        match *self {
            ThreadsChoice::Flag(n) | ThreadsChoice::Env(n) => Some(n),
            ThreadsChoice::Auto => None,
        }
    }

    /// Which knob decided (`"flag"`, `"env"`, `"auto"`), for logs.
    pub fn source(&self) -> &'static str {
        match self {
            ThreadsChoice::Flag(_) => "flag",
            ThreadsChoice::Env(_) => "env",
            ThreadsChoice::Auto => "auto",
        }
    }
}

/// Resolve the thread-count knobs in the documented precedence order —
/// a `--threads` flag value beats `CELLSPOT_THREADS`, which beats auto.
/// Reads the environment; [`resolve_threads_with`] is the pure core.
pub fn resolve_threads(flag: Option<usize>) -> ThreadsChoice {
    resolve_threads_with(flag, std::env::var(THREADS_ENV).ok().as_deref())
}

/// Pure precedence resolution: `flag` (if positive) beats `env` (if it
/// parses to a positive integer) beats auto. Zero and unparsable values
/// are treated as absent at both levels.
pub fn resolve_threads_with(flag: Option<usize>, env: Option<&str>) -> ThreadsChoice {
    if let Some(n) = flag.filter(|&n| n > 0) {
        return ThreadsChoice::Flag(n);
    }
    if let Some(n) = env
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return ThreadsChoice::Env(n);
    }
    ThreadsChoice::Auto
}

/// Apply a resolved [`ThreadsChoice`] to the global rayon pool.
/// Returns the pinned width, or `None` for auto.
///
/// Call this once, early — rayon's global pool can only be configured
/// before first use; later calls are silently ignored (the pool already
/// exists, and determinism does not depend on its width anyway).
pub fn configure_threads(choice: ThreadsChoice) -> Option<usize> {
    let n = choice.pinned()?;
    // An Err here means the global pool was already built; the requested
    // width still describes intent, so report it either way.
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global();
    Some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configure_reports_the_pinned_width() {
        assert_eq!(configure_threads(ThreadsChoice::Auto), None);
        // Pinning is best-effort (the global pool may already exist), but
        // the requested width is always reported back.
        assert_eq!(configure_threads(ThreadsChoice::Flag(2)), Some(2));
    }

    #[test]
    fn threads_precedence_is_flag_env_auto() {
        // Flag beats env beats auto.
        assert_eq!(
            resolve_threads_with(Some(3), Some("8")),
            ThreadsChoice::Flag(3)
        );
        assert_eq!(resolve_threads_with(None, Some("8")), ThreadsChoice::Env(8));
        assert_eq!(resolve_threads_with(None, None), ThreadsChoice::Auto);
        // Zero or unparsable values fall through a level instead of
        // masking the one below.
        assert_eq!(
            resolve_threads_with(Some(0), Some("8")),
            ThreadsChoice::Env(8)
        );
        assert_eq!(resolve_threads_with(None, Some("0")), ThreadsChoice::Auto);
        assert_eq!(
            resolve_threads_with(None, Some("lots")),
            ThreadsChoice::Auto
        );
        assert_eq!(
            resolve_threads_with(Some(0), Some(" 2 ")),
            ThreadsChoice::Env(2)
        );
        // Accessors agree with the variants.
        assert_eq!(ThreadsChoice::Flag(3).pinned(), Some(3));
        assert_eq!(ThreadsChoice::Env(8).source(), "env");
        assert_eq!(ThreadsChoice::Auto.pinned(), None);
    }
}
