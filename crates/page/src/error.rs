//! Error type for the storage substrate.

use crate::{Interrupt, PageId};
use std::fmt;

/// Errors raised by page stores, buffer pools, and codecs.
#[derive(Debug)]
pub enum PageError {
    /// A page id that was never allocated or has been freed.
    UnknownPage(PageId),
    /// Serialized node content exceeded the page size.
    Overflow {
        /// Bytes the caller attempted to store.
        need: usize,
        /// The store's page size.
        cap: usize,
    },
    /// A serialized page failed to decode.
    Corrupt(String),
    /// An error from the underlying file.
    Io(std::io::Error),
    /// A governed read was denied by the query's [`QueryContext`]
    /// (cancel, deadline, or read budget — see [`Interrupt`]). Not a
    /// storage failure: the page and the pool are fine, the *query* has
    /// been told to stop. Engines translate this into a `Degraded`
    /// outcome carrying their partial results.
    ///
    /// [`QueryContext`]: crate::QueryContext
    Interrupted(Interrupt),
}

/// Convenience alias for fallible storage operations.
pub type PageResult<T> = Result<T, PageError>;

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageError::UnknownPage(id) => write!(f, "unknown page {id}"),
            PageError::Overflow { need, cap } => {
                write!(f, "page overflow: need {need} bytes, page size is {cap}")
            }
            PageError::Corrupt(msg) => write!(f, "corrupt page: {msg}"),
            PageError::Io(e) => write!(f, "storage I/O error: {e}"),
            PageError::Interrupted(i) => write!(f, "query interrupted: {i}"),
        }
    }
}

impl std::error::Error for PageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PageError {
    fn from(e: std::io::Error) -> Self {
        PageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PageError::Overflow {
            need: 5000,
            cap: 4096,
        };
        let s = e.to_string();
        assert!(s.contains("5000") && s.contains("4096"));
        assert!(PageError::UnknownPage(PageId(7)).to_string().contains("p7"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let e: PageError = io.into();
        assert!(matches!(e, PageError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
