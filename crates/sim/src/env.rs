//! The one reader of the `ICKPT_*` environment knobs.
//!
//! Every knob is strict: unset means the reader's documented default, a
//! malformed value aborts with `error: NAME="raw" is invalid: expected …`
//! and exit status 2 before a run starts half-configured. A value parser
//! returns what it expected on failure; [`parse`] builds the message, so
//! strictness is unit-testable without a process. The knob table in the
//! README lists every name, its values, default and reader.

/// A value parser: the parsed value, or what a valid value looks like.
pub(crate) type Parser<T> = fn(&str) -> Result<T, &'static str>;

/// Parse `raw` as the value of knob `name`; the error is the message a
/// malformed value aborts with.
pub fn parse<T>(name: &str, raw: &str, parser: Parser<T>) -> Result<T, String> {
    parser(raw.trim()).map_err(|expected| format!("{name}={raw:?} is invalid: expected {expected}"))
}

// The one sanctioned stderr write of the knob code: a malformed value
// aborts the process, so there is no report to return the message through.
/// Read knob `name`: `None` when unset, the parsed value when well
/// formed, else the message on stderr and exit status 2.
#[allow(clippy::disallowed_macros)]
pub fn knob<T>(name: &str, parser: Parser<T>) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    Some(parse(name, &raw, parser).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    }))
}

/// A count: a whole number >= 1.
pub fn count(raw: &str) -> Result<usize, &'static str> {
    raw.parse().ok().filter(|&n| n >= 1).ok_or("a whole number >= 1")
}

/// An on/off flag: `1`/`true` or `0`/`false`, any case.
pub fn flag(raw: &str) -> Result<bool, &'static str> {
    match raw.to_ascii_lowercase().as_str() {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        _ => Err("0, 1, true or false"),
    }
}

/// A positive finite number (scale factors, period counts).
pub fn positive(raw: &str) -> Result<f64, &'static str> {
    raw.parse().ok().filter(|&x: &f64| x > 0.0 && x.is_finite()).ok_or("a finite number > 0")
}

/// A non-empty comma-separated list of counts.
pub fn counts(raw: &str) -> Result<Vec<usize>, &'static str> {
    raw.split(',')
        .map(|s| count(s.trim()))
        .collect::<Result<_, _>>()
        .map_err(|_| "a comma-separated list of whole numbers >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_knob_and_the_value() {
        assert_eq!(parse("K", " 8\n", count), Ok(8));
        let err = parse("ICKPT_BENCH_RANKS", "6.4", count).unwrap_err();
        assert_eq!(err, "ICKPT_BENCH_RANKS=\"6.4\" is invalid: expected a whole number >= 1");
    }

    #[test]
    fn counts_are_strict() {
        assert_eq!(count("64"), Ok(64));
        // The historical bug: "6.4" must not silently become 64 ranks.
        for bad in ["", "0", "lots", "-1", "2.5", "6.4", "8 workers", "0x4", "99999999999999999999"]
        {
            assert!(count(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn flags_are_strict() {
        for on in ["1", "true", "TRUE", "True"] {
            assert_eq!(flag(on), Ok(true), "{on:?}");
        }
        for off in ["0", "false", "False"] {
            assert_eq!(flag(off), Ok(false), "{off:?}");
        }
        for bad in ["", "yes", "on", "2", "tru"] {
            assert!(flag(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn positives_are_finite_and_above_zero() {
        assert_eq!(positive("0.05"), Ok(0.05));
        for bad in ["0", "-1", "inf", "NaN", "1,5", ""] {
            assert!(positive(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn lists_hold_counts_only() {
        assert_eq!(counts("1, 4,16"), Ok(vec![1, 4, 16]));
        for bad in ["", "4,frogs", "1,,4", "0,4", "64,"] {
            assert!(counts(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn unset_knob_is_none() {
        assert_eq!(knob("ICKPT_TEST_KNOB_THAT_IS_NEVER_SET", count), None);
    }
}
