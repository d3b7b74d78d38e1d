//! Hardened environment-variable parsing shared by every knob the
//! suite reads from the environment (`LLP_WORKERS`, `LLPD_TUNE_DB`,
//! `LLPD_MEM_BUDGET`, …).
//!
//! A service must not die on a typo'd environment, but it also must
//! not *silently* ignore one: an operator who exports
//! `LLP_WORKERS=eight` deserves to learn why the pool came up at the
//! machine default. Every helper here therefore follows one contract:
//!
//! * unset variable → `None`, silently (the documented fallback
//!   applies);
//! * well-formed value → `Some(value)`;
//! * malformed value (zero, overflow, garbage, empty) → `None` **plus
//!   one warning on stderr** naming the variable, the offending value,
//!   and the fallback being taken.

use std::path::PathBuf;

/// Read `name` as a positive (non-zero) `usize`.
///
/// Returns `None` when the variable is unset, and also when it is set
/// to something unusable — `0`, a negative number, a value that
/// overflows `usize`, or non-numeric garbage — after printing a
/// one-line warning to stderr so the fallback is never silent.
/// Surrounding whitespace is tolerated.
#[must_use]
pub fn positive_usize(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        Ok(_) => {
            warn_invalid(name, trimmed, "must be a positive integer");
            None
        }
        Err(e) if matches!(e.kind(), std::num::IntErrorKind::PosOverflow) => {
            warn_invalid(name, trimmed, "overflows the machine word");
            None
        }
        Err(_) => {
            warn_invalid(name, trimmed, "is not a positive integer");
            None
        }
    }
}

/// Read `name` as a filesystem path.
///
/// Returns `None` when the variable is unset or set to an empty (or
/// all-whitespace) string; the empty case warns on stderr, because an
/// exported-but-empty path variable is almost always a broken shell
/// expansion rather than an intentional "no path".
#[must_use]
pub fn path(name: &str) -> Option<PathBuf> {
    let raw = std::env::var_os(name)?;
    if raw.to_str().is_some_and(|s| s.trim().is_empty()) || raw.is_empty() {
        warn_invalid(name, "", "is empty");
        return None;
    }
    Some(PathBuf::from(raw))
}

/// The single warning line all helpers emit. Kept in one place so the
/// format ("warning: ignoring VAR=...") stays greppable.
fn warn_invalid(name: &str, value: &str, why: &str) {
    eprintln!("warning: ignoring {name}={value:?}: {why}; using the default instead");
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns a unique variable name: tests run concurrently in
    // one process, and the environment is process-global.

    #[test]
    fn unset_is_none() {
        assert_eq!(positive_usize("LLP_ENV_TEST_UNSET"), None);
        assert_eq!(path("LLP_ENV_TEST_UNSET_PATH"), None);
    }

    #[test]
    fn well_formed_value_parses() {
        std::env::set_var("LLP_ENV_TEST_OK", "8");
        assert_eq!(positive_usize("LLP_ENV_TEST_OK"), Some(8));
    }

    #[test]
    fn whitespace_is_tolerated() {
        std::env::set_var("LLP_ENV_TEST_WS", "  12  ");
        assert_eq!(positive_usize("LLP_ENV_TEST_WS"), Some(12));
    }

    #[test]
    fn zero_is_rejected() {
        std::env::set_var("LLP_ENV_TEST_ZERO", "0");
        assert_eq!(positive_usize("LLP_ENV_TEST_ZERO"), None);
    }

    #[test]
    fn overflow_is_rejected() {
        std::env::set_var("LLP_ENV_TEST_OVERFLOW", "99999999999999999999999999");
        assert_eq!(positive_usize("LLP_ENV_TEST_OVERFLOW"), None);
    }

    #[test]
    fn garbage_is_rejected() {
        std::env::set_var("LLP_ENV_TEST_GARBAGE", "eight");
        assert_eq!(positive_usize("LLP_ENV_TEST_GARBAGE"), None);
        std::env::set_var("LLP_ENV_TEST_NEGATIVE", "-4");
        assert_eq!(positive_usize("LLP_ENV_TEST_NEGATIVE"), None);
    }

    #[test]
    fn path_round_trips() {
        std::env::set_var("LLP_ENV_TEST_PATH", "/tmp/tune.json");
        assert_eq!(
            path("LLP_ENV_TEST_PATH"),
            Some(PathBuf::from("/tmp/tune.json"))
        );
    }

    #[test]
    fn empty_path_is_rejected() {
        std::env::set_var("LLP_ENV_TEST_EMPTY_PATH", "   ");
        assert_eq!(path("LLP_ENV_TEST_EMPTY_PATH"), None);
        std::env::set_var("LLP_ENV_TEST_EMPTY_PATH2", "");
        assert_eq!(path("LLP_ENV_TEST_EMPTY_PATH2"), None);
    }
}
