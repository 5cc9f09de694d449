//! Workspace error type.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the textjoin crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A read or write touched a page outside the file it addressed.
    PageOutOfBounds {
        /// Name of the simulated file.
        file: String,
        /// Offending page number.
        page: u64,
        /// Number of pages in the file.
        len: u64,
    },
    /// The memory budget is too small for the requested operation — e.g.
    /// HHNL cannot hold even one inner document plus one outer document.
    InsufficientMemory {
        /// What the memory was needed for.
        context: String,
        /// Pages required.
        required_pages: u64,
        /// Pages available.
        available_pages: u64,
    },
    /// An on-disk structure failed validation while being decoded.
    Corrupt(String),
    /// A named entity (file, relation, attribute, …) does not exist.
    NotFound(String),
    /// The extended-SQL text failed to parse.
    Parse(String),
    /// A query referenced catalog objects inconsistently (unknown column,
    /// type mismatch, missing SIMILAR_TO argument, …).
    Plan(String),
    /// Invalid argument or configuration.
    InvalidArgument(String),
    /// A read failed even after its retries were exhausted — the
    /// simulated-disk analogue of an unrecoverable device error.
    Io {
        /// Name of the simulated file.
        file: String,
        /// Offending page number.
        page: u64,
        /// Read attempts made before giving up.
        attempts: u32,
    },
    /// A running join's observed page cost exceeded the watchdog budget
    /// derived from its cost-model prediction — the signal for the
    /// executor to abandon the mispredicted plan and re-plan onto the
    /// next-cheapest algorithm. Costs are rounded up to whole page units
    /// so the variant stays `Eq`-comparable.
    CostOverrun {
        /// Observed page cost (seq + α·rand, rounded up) at the check.
        observed_pages: u64,
        /// The budget the run was allowed before aborting.
        budget_pages: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::PageOutOfBounds { file, page, len } => {
                write!(
                    f,
                    "page {page} out of bounds for file '{file}' ({len} pages)"
                )
            }
            Error::InsufficientMemory {
                context,
                required_pages,
                available_pages,
            } => write!(
                f,
                "insufficient memory for {context}: need {required_pages} pages, \
                 have {available_pages}"
            ),
            Error::Corrupt(msg) => write!(f, "corrupt structure: {msg}"),
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::Plan(msg) => write!(f, "planning error: {msg}"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::Io {
                file,
                page,
                attempts,
            } => write!(
                f,
                "i/o error on file '{file}' page {page} after {attempts} attempts"
            ),
            Error::CostOverrun {
                observed_pages,
                budget_pages,
            } => write!(
                f,
                "cost overrun: observed {observed_pages} cost pages exceeds the \
                 watchdog budget of {budget_pages}"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_facts() {
        let e = Error::PageOutOfBounds {
            file: "wsj.docs".into(),
            page: 99,
            len: 10,
        };
        let msg = e.to_string();
        assert!(msg.contains("wsj.docs") && msg.contains("99") && msg.contains("10"));

        let e = Error::InsufficientMemory {
            context: "HHNL outer batch".into(),
            required_pages: 12,
            available_pages: 4,
        };
        assert!(e.to_string().contains("HHNL outer batch"));

        let e = Error::Io {
            file: "wsj.docs".into(),
            page: 7,
            attempts: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("wsj.docs") && msg.contains('7') && msg.contains('3'));

        let e = Error::CostOverrun {
            observed_pages: 640,
            budget_pages: 320,
        };
        let msg = e.to_string();
        assert!(msg.contains("640") && msg.contains("320"), "{msg}");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_std_error<E: std::error::Error>() {}
        assert_std_error::<Error>();
    }
}
