//! The `ICKPT_*` environment knobs of the capture and restore configs.
//!
//! Strict like `ICKPT_SIM_WORKERS` and `ICKPT_KERNELS`: an absent knob
//! means the documented default, a malformed one aborts with a message
//! and exit status 2 before a run starts half-configured. The parsers
//! are pure so the strictness is unit-testable without a process.

/// Parse a count knob (worker threads, block thresholds).
pub(crate) fn parse_count<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.trim()
        .parse()
        .map_err(|_| format!("{name}={raw:?} is invalid: expected a non-negative integer"))
}

/// Parse an on/off knob: `1`/`true` or `0`/`false`, any case.
pub(crate) fn parse_flag(name: &str, raw: &str) -> Result<bool, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        _ => Err(format!("{name}={raw:?} is invalid: expected 0, 1, true or false")),
    }
}

// The one sanctioned stderr write in this crate, as in `ickpt-storage`'s
// kernel dispatch and the cluster engine: a malformed knob aborts.
/// Read knob `name`: `None` when unset, the parsed value when well
/// formed, else a message on stderr and exit status 2.
#[allow(clippy::disallowed_macros)]
pub(crate) fn knob<T>(name: &str, parse: fn(&str, &str) -> Result<T, String>) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    Some(parse(name, &raw).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    }))
}

/// Capture/restore worker default: the machine's available parallelism
/// capped at 8 — page copy saturates memory bandwidth long before core
/// count on wide machines.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_strict() {
        assert_eq!(parse_count::<usize>("K", "8"), Ok(8));
        assert_eq!(parse_count::<usize>("K", " 0 "), Ok(0), "0 is a count; callers clamp");
        assert_eq!(parse_count::<u32>("K", "12"), Ok(12));
        for bad in ["", "lots", "-1", "2.5", "8 workers", "4294967296000000000000"] {
            let err = parse_count::<usize>("ICKPT_RESTORE_WORKERS", bad).unwrap_err();
            assert!(err.contains("ICKPT_RESTORE_WORKERS") && err.contains("invalid"), "{err}");
        }
        assert!(parse_count::<u32>("K", "4294967296").is_err(), "out of range is malformed");
    }

    #[test]
    fn flags_are_strict() {
        for on in ["1", "true", "TRUE", " True "] {
            assert_eq!(parse_flag("K", on), Ok(true), "{on:?}");
        }
        for off in ["0", "false", "False"] {
            assert_eq!(parse_flag("K", off), Ok(false), "{off:?}");
        }
        for bad in ["", "yes", "on", "2", "tru"] {
            let err = parse_flag("ICKPT_DEDUP", bad).unwrap_err();
            assert!(err.contains("ICKPT_DEDUP") && err.contains("invalid"), "{err}");
        }
    }

    #[test]
    fn unset_knob_is_none() {
        assert_eq!(knob("ICKPT_TEST_KNOB_THAT_IS_NEVER_SET", parse_count::<usize>), None);
    }
}
