//! The unified error taxonomy of the `rfh` toolchain.
//!
//! Every component crate reports failures through its own error type
//! ([`rfh_isa::IsaError`], [`rfh_alloc::AllocError`],
//! [`rfh_sim::ExecError`], [`rfh_sim::TimingError`]); [`RfhError`] folds
//! them into one enum so a driver can handle "anything the pipeline can
//! report" uniformly and map each class to a stable process exit code.
//!
//! The exit-code contract (documented in `docs/ROBUSTNESS.md` and relied
//! on by `tests/cli.rs`); every code but 0 and 1 is
//! [`ErrorKind::exit_code`]'s:
//!
//! | code | meaning                                     |
//! |------|---------------------------------------------|
//! | 0    | success                                     |
//! | 1    | I/O failure (unreadable input, stdin error) |
//! | 2    | usage error (bad flags or arguments)        |
//! | 3    | parse error in the kernel text              |
//! | 4    | structurally invalid kernel                 |
//! | 5    | allocation configuration error              |
//! | 6    | execution error                             |
//! | 7    | timing-model error (deadlock, cycle budget) |
//! | 8    | lint errors reported by `rfhc lint`         |
//! | 9    | daemon failure (protocol, timeout, overload)|
//! | 70   | internal panic caught at the driver boundary|
//!
//! `rfhc client` additionally maps error frames reported by a daemon back
//! onto this same table using the frame's own class code (a `parse` frame
//! exits 3, a `lint` frame exits 8, …), so scripting against the daemon
//! feels exactly like scripting against the local pipeline; code 9 covers
//! the failures only a daemon can have.

use std::fmt;

use rfh_alloc::AllocError;
use rfh_isa::IsaError;
use rfh_rfhd::{ErrorFrame, ErrorKind};
use rfh_sim::{ExecError, TimingError};

/// Exit code used when the driver's `catch_unwind` boundary traps a panic
/// that escaped the library (a bug, by definition — the libraries are
/// panic-free by contract).
pub const EXIT_INTERNAL_PANIC: i32 = ErrorKind::Internal.exit_code();

/// Any error the rfh pipeline can report.
#[derive(Debug)]
pub enum RfhError {
    /// Reading input failed.
    Io {
        /// The path (or `-` for stdin) that could not be read.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The command line was malformed.
    Usage(String),
    /// The kernel text failed to parse or validate.
    Isa(IsaError),
    /// Allocation rejected its input or configuration.
    Alloc(AllocError),
    /// Functional execution failed.
    Exec(ExecError),
    /// The timing model aborted (deadlock or cycle budget).
    Timing(TimingError),
    /// `rfhc lint` found error-severity diagnostics (the diagnostics
    /// themselves go to stdout; this carries the count for the summary).
    Lint {
        /// Number of error-severity findings.
        errors: usize,
    },
    /// A daemon-side failure (`rfhc serve` / `rfhc client`): transport
    /// errors, protocol violations, wall-clock timeouts, load shedding.
    /// Carries the exact exit code because error frames map back onto
    /// this whole table, not just to 9 (see [`RfhError::exit_code`]).
    Daemon {
        /// Description of the failure.
        message: String,
        /// The stable exit code reported by the error-frame class, or 9
        /// for transport-level failures.
        code: i32,
    },
}

impl RfhError {
    /// The stable process exit code for this error class (see the module
    /// docs for the full table). Pipeline classes take the code of the
    /// daemon's matching [`ErrorKind`], so the two tables cannot drift.
    pub fn exit_code(&self) -> i32 {
        let kind = match self {
            RfhError::Io { .. } => return 1,
            RfhError::Daemon { code, .. } => return *code,
            RfhError::Usage(_) => ErrorKind::Usage,
            RfhError::Isa(e) => ErrorFrame::from(e.clone()).kind,
            RfhError::Alloc(e) => ErrorFrame::from(e.clone()).kind,
            RfhError::Exec(_) => ErrorKind::Exec,
            RfhError::Timing(_) => ErrorKind::Timing,
            RfhError::Lint { .. } => ErrorKind::Lint,
        };
        kind.exit_code()
    }
}

impl fmt::Display for RfhError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RfhError::Io { path, source } => write!(f, "cannot read {path}: {source}"),
            RfhError::Usage(msg) => write!(f, "usage error: {msg}"),
            RfhError::Isa(e) => write!(f, "{e}"),
            RfhError::Alloc(e) => write!(f, "{e}"),
            RfhError::Exec(e) => write!(f, "{e}"),
            RfhError::Timing(e) => write!(f, "{e}"),
            RfhError::Lint { errors } => write!(
                f,
                "lint found {errors} error{}",
                if *errors == 1 { "" } else { "s" }
            ),
            RfhError::Daemon { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for RfhError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RfhError::Io { source, .. } => Some(source),
            RfhError::Usage(_) => None,
            RfhError::Isa(e) => Some(e),
            RfhError::Alloc(e) => Some(e),
            RfhError::Exec(e) => Some(e),
            RfhError::Timing(e) => Some(e),
            RfhError::Lint { .. } => None,
            RfhError::Daemon { .. } => None,
        }
    }
}

impl From<IsaError> for RfhError {
    fn from(e: IsaError) -> Self {
        RfhError::Isa(e)
    }
}

impl From<AllocError> for RfhError {
    fn from(e: AllocError) -> Self {
        RfhError::Alloc(e)
    }
}

impl From<ExecError> for RfhError {
    fn from(e: ExecError) -> Self {
        RfhError::Exec(e)
    }
}

impl From<TimingError> for RfhError {
    fn from(e: TimingError) -> Self {
        RfhError::Timing(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_class() {
        let codes = [
            RfhError::Io {
                path: "x".into(),
                source: std::io::Error::new(std::io::ErrorKind::NotFound, "nope"),
            }
            .exit_code(),
            RfhError::Usage("bad flag".into()).exit_code(),
            RfhError::Isa(IsaError::Parse {
                line: 1,
                msg: "junk".into(),
            })
            .exit_code(),
            RfhError::Isa(IsaError::Validate {
                at: "BB0".into(),
                msg: "bad".into(),
            })
            .exit_code(),
            RfhError::Alloc(AllocError::Config("cfg".into())).exit_code(),
            RfhError::Timing(TimingError::Deadlock {
                cycle: 3,
                snapshot: rfh_sim::DeadlockSnapshot::default(),
            })
            .exit_code(),
            RfhError::Lint { errors: 2 }.exit_code(),
            RfhError::Daemon {
                message: "daemon connection failed".into(),
                code: 9,
            }
            .exit_code(),
        ];
        assert_eq!(codes, [1, 2, 3, 4, 5, 7, 8, 9]);
    }

    #[test]
    fn daemon_errors_carry_the_frame_class_code() {
        // An error frame from the daemon keeps its own class code, so a
        // parse failure exits 3 whether it happened locally or remotely.
        let remote_parse = RfhError::Daemon {
            message: "daemon error: parse: line 1: junk".into(),
            code: 3,
        };
        assert_eq!(remote_parse.exit_code(), 3);
    }

    #[test]
    fn lint_error_display_counts() {
        assert_eq!(
            RfhError::Lint { errors: 1 }.to_string(),
            "lint found 1 error"
        );
        assert_eq!(
            RfhError::Lint { errors: 3 }.to_string(),
            "lint found 3 errors"
        );
    }

    #[test]
    fn validate_maps_like_alloc_invalid_kernel() {
        let via_isa = RfhError::Isa(IsaError::Validate {
            at: "BB0".into(),
            msg: "bad".into(),
        });
        let via_alloc = RfhError::Alloc(AllocError::InvalidKernel(IsaError::Validate {
            at: "BB0".into(),
            msg: "bad".into(),
        }));
        assert_eq!(via_isa.exit_code(), via_alloc.exit_code());
    }

    #[test]
    fn display_and_source_chain() {
        let e = RfhError::from(IsaError::Parse {
            line: 7,
            msg: "unknown opcode".into(),
        });
        assert!(e.to_string().contains("unknown opcode"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
