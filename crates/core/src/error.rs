//! Error type for benchmark-core operations.

use std::fmt;

/// Errors produced while driving a benchmark run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An interaction referenced a visualization that does not exist.
    UnknownViz(String),
    /// A visualization with this name already exists.
    DuplicateViz(String),
    /// Adding this link would create a cycle in the viz graph.
    LinkCycle {
        /// Link source viz.
        source: String,
        /// Link target viz.
        target: String,
    },
    /// The adapter rejected the dataset (e.g. no join support for star schemas).
    Unsupported(String),
    /// A storage-layer error bubbled up.
    Storage(String),
    /// A benchmark configuration or workload file could not be read or
    /// parsed.
    Config(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownViz(v) => write!(f, "unknown visualization: {v}"),
            CoreError::DuplicateViz(v) => write!(f, "visualization already exists: {v}"),
            CoreError::LinkCycle { source, target } => {
                write!(f, "link {source} -> {target} would create a cycle")
            }
            CoreError::Unsupported(what) => write!(f, "unsupported by system under test: {what}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::Config(e) => write!(f, "config error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<idebench_storage::StorageError> for CoreError {
    fn from(e: idebench_storage::StorageError) -> Self {
        CoreError::Storage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            CoreError::UnknownViz("viz_0".into()).to_string(),
            "unknown visualization: viz_0"
        );
        assert_eq!(
            CoreError::Config("cfg.json: bad".into()).to_string(),
            "config error: cfg.json: bad"
        );
        assert!(CoreError::LinkCycle {
            source: "a".into(),
            target: "b".into()
        }
        .to_string()
        .contains("a -> b"));
    }

    #[test]
    fn storage_error_converts() {
        let e: CoreError = idebench_storage::StorageError::UnknownColumn("x".into()).into();
        assert!(matches!(e, CoreError::Storage(_)));
    }
}
