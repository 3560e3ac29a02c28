//! Environment-variable knob parsing, in one place.
//!
//! Every runtime knob of the test/experiment infrastructure (`RFH_JOBS`,
//! `RFH_CHAOS_CASES`, `RFH_TESTKIT_SEED`, `RFH_TESTKIT_CASES`) is read through
//! these helpers. The contract, uniform across all knobs:
//!
//! * an **unset** variable falls back to the caller's default silently;
//! * a **malformed** value warns loudly on stderr, quoting the offending
//!   string, and then falls back — it is never silently ignored, and it
//!   never panics (historically each call site picked one of the three
//!   behaviors at random);
//! * integer knobs accept decimal and `0x`-prefixed hexadecimal, so the
//!   seeds printed in failure reports (`seed 0x…`) can be pasted back
//!   into `RFH_TESTKIT_SEED` verbatim.

/// Reads a string-valued knob. Never warns: any present value is valid.
pub fn string(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Parses a raw integer string under the knob grammar (decimal or
/// `0x`-prefixed hex, `_` separators allowed), warning loudly on a
/// malformed value and falling back to `None`.
///
/// `what` names the source in the warning — an environment variable
/// (`"RFH_JOBS"`) or a CLI flag (`"--jobs"`) — so command-line arguments
/// parsed through this helper misbehave *identically* to env knobs.
pub fn parse_u64(what: &str, raw: &str) -> Option<u64> {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => raw.replace('_', "").parse(),
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!(
                "warning: {what}={raw:?} is not a valid integer (decimal or 0x-hex); \
                 falling back to the default"
            );
            None
        }
    }
}

/// [`parse_u64`] narrowed to `usize`, with the same loud-warning contract.
pub fn parse_usize(what: &str, raw: &str) -> Option<usize> {
    parse_u64(what, raw).and_then(|v| {
        usize::try_from(v)
            .map_err(|_| {
                eprintln!(
                    "warning: {what}={v} does not fit in usize; \
                     falling back to the default"
                );
            })
            .ok()
    })
}

/// [`parse_usize`] that additionally rejects zero (worker counts, sample
/// counts), warning and falling back like any other bad value.
pub fn parse_positive_usize(what: &str, raw: &str) -> Option<usize> {
    match parse_usize(what, raw) {
        Some(0) => {
            eprintln!(
                "warning: {what}=0 is not a valid count (must be >= 1); \
                 falling back to the default"
            );
            None
        }
        other => other,
    }
}

/// Reads a `u64` knob (decimal or `0x`-prefixed hex), warning loudly on a
/// malformed value and falling back to `None`.
pub fn u64_knob(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    parse_u64(name, &raw)
}

/// Reads a `usize` knob, warning loudly on a malformed value and falling
/// back to `None`.
pub fn usize_knob(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    parse_usize(name, &raw)
}

/// Reads a `usize` knob that must be at least 1 (worker counts, sample
/// counts). Zero is malformed: it warns and falls back like any other bad
/// value.
pub fn positive_usize_knob(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    parse_positive_usize(name, &raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses a unique variable name: tests run concurrently in one
    // process and share the environment.

    #[test]
    fn unset_is_none() {
        assert_eq!(u64_knob("RFH_TEST_ENV_UNSET"), None);
        assert_eq!(string("RFH_TEST_ENV_UNSET"), None);
    }

    #[test]
    fn decimal_parses() {
        std::env::set_var("RFH_TEST_ENV_DEC", "1234");
        assert_eq!(u64_knob("RFH_TEST_ENV_DEC"), Some(1234));
        assert_eq!(usize_knob("RFH_TEST_ENV_DEC"), Some(1234));
    }

    #[test]
    fn hex_parses() {
        std::env::set_var("RFH_TEST_ENV_HEX", "0x15A_F022");
        assert_eq!(u64_knob("RFH_TEST_ENV_HEX"), Some(0x15A_F022));
    }

    #[test]
    fn malformed_warns_and_falls_back() {
        std::env::set_var("RFH_TEST_ENV_BAD", "not-a-number");
        assert_eq!(u64_knob("RFH_TEST_ENV_BAD"), None);
        assert_eq!(usize_knob("RFH_TEST_ENV_BAD"), None);
    }

    #[test]
    fn zero_is_rejected_for_positive_knobs() {
        std::env::set_var("RFH_TEST_ENV_ZERO", "0");
        assert_eq!(usize_knob("RFH_TEST_ENV_ZERO"), Some(0));
        assert_eq!(positive_usize_knob("RFH_TEST_ENV_ZERO"), None);
    }

    #[test]
    fn string_passes_through() {
        std::env::set_var("RFH_TEST_ENV_STR", "/tmp/out.json");
        assert_eq!(string("RFH_TEST_ENV_STR"), Some("/tmp/out.json".into()));
    }

    #[test]
    fn raw_parsers_share_the_knob_grammar() {
        assert_eq!(parse_u64("--jobs", "8"), Some(8));
        assert_eq!(parse_u64("--jobs", "0x1_0"), Some(16));
        assert_eq!(parse_u64("--jobs", "eight"), None);
        assert_eq!(parse_usize("--jobs", "4"), Some(4));
        assert_eq!(parse_positive_usize("--jobs", "0"), None);
        assert_eq!(parse_positive_usize("--jobs", "2"), Some(2));
    }
}
