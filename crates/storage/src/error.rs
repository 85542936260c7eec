//! Error type for storage operations.

use std::fmt;

/// Errors produced by storage-layer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A column referenced by name does not exist in the schema.
    UnknownColumn(String),
    /// A value with the wrong [`crate::DataType`] was appended or read.
    TypeMismatch {
        /// Column on which the mismatch occurred.
        column: String,
        /// What the schema declares.
        expected: &'static str,
        /// What was supplied.
        got: &'static str,
    },
    /// Columns of a table disagree on row count.
    LengthMismatch {
        /// Expected row count (from the first column).
        expected: usize,
        /// Row count of the offending column.
        got: usize,
    },
    /// A table referenced by name does not exist in a star schema.
    UnknownTable(String),
    /// A star schema's foreign-key column holds a null or an out-of-range key.
    ForeignKey {
        /// The foreign-key column.
        column: String,
        /// What is wrong with its keys.
        message: String,
    },
    /// CSV parsing failed.
    Csv {
        /// 1-based line number of the offending record.
        line: usize,
        /// Description of the failure.
        message: String,
    },
    /// An I/O error occurred (message only; `std::io::Error` is not `Clone`).
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            StorageError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch on column {column}: expected {expected}, got {got}"
            ),
            StorageError::LengthMismatch { expected, got } => {
                write!(f, "column length mismatch: expected {expected}, got {got}")
            }
            StorageError::UnknownTable(name) => write!(f, "unknown table: {name}"),
            StorageError::ForeignKey { column, message } => {
                write!(f, "foreign key {column}: {message}")
            }
            StorageError::Csv { line, message } => write!(f, "csv error at line {line}: {message}"),
            StorageError::Io(message) => write!(f, "io error: {message}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_column() {
        let e = StorageError::UnknownColumn("dep_delay".into());
        assert_eq!(e.to_string(), "unknown column: dep_delay");
    }

    #[test]
    fn display_type_mismatch() {
        let e = StorageError::TypeMismatch {
            column: "carrier".into(),
            expected: "nominal",
            got: "float",
        };
        assert!(e.to_string().contains("carrier"));
        assert!(e.to_string().contains("nominal"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: StorageError = io.into();
        assert!(matches!(e, StorageError::Io(_)));
    }
}
