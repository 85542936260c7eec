//! Table schemas: field names and data types.

use crate::error::StorageError;
use serde::{Deserialize, Serialize};

/// Logical data type of a column.
///
/// IDEBench datasets (see Figure 2 of the paper) use two visualization-level
/// kinds of dimensions — *quantitative* and *nominal* — plus integer keys for
/// star-schema joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DataType {
    /// 64-bit floating point, used for all quantitative measures.
    Float,
    /// 64-bit signed integer, used for keys and discrete counts.
    Int,
    /// Dictionary-encoded categorical string (carrier, airport, …).
    Nominal,
}

impl DataType {
    /// Short lowercase name used in error messages and reports.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Float => "float",
            DataType::Int => "int",
            DataType::Nominal => "nominal",
        }
    }

    /// Whether the type is binned with quantitative (range) binning.
    pub fn is_quantitative(self) -> bool {
        matches!(self, DataType::Float | DataType::Int)
    }
}

/// A named, typed column slot in a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Column name, unique within the schema.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered collection of [`Field`]s describing a table layout.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields. Field names must be unique.
    pub fn new(fields: Vec<Field>) -> Self {
        debug_assert!(
            {
                let mut names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                names.sort_unstable();
                names.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate field names in schema"
        );
        Schema { fields }
    }

    /// Creates a schema from `(name, type)` pairs.
    pub fn from_pairs(fields: &[(&str, DataType)]) -> Self {
        Self::new(fields.iter().map(|(n, t)| Field::new(*n, *t)).collect())
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Result<usize, StorageError> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| StorageError::UnknownColumn(name.to_string()))
    }

    /// Field for the given name.
    pub fn field(&self, name: &str) -> Result<&Field, StorageError> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Returns a new schema containing only the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema, StorageError> {
        let fields = names
            .iter()
            .map(|n| self.field(n).cloned())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Schema::new(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flights_like() -> Schema {
        Schema::new(vec![
            Field::new("carrier", DataType::Nominal),
            Field::new("dep_delay", DataType::Float),
            Field::new("distance", DataType::Float),
            Field::new("origin_key", DataType::Int),
        ])
    }

    #[test]
    fn index_of_finds_columns() {
        let s = flights_like();
        assert_eq!(s.index_of("carrier").unwrap(), 0);
        assert_eq!(s.index_of("origin_key").unwrap(), 3);
    }

    #[test]
    fn index_of_unknown_errors() {
        let s = flights_like();
        assert_eq!(
            s.index_of("nope"),
            Err(StorageError::UnknownColumn("nope".into()))
        );
    }

    #[test]
    fn project_preserves_order() {
        let s = flights_like();
        let p = s.project(&["distance", "carrier"]).unwrap();
        assert_eq!(p.fields()[0].name, "distance");
        assert_eq!(p.fields()[1].name, "carrier");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn datatype_quantitative_classification() {
        assert!(DataType::Float.is_quantitative());
        assert!(DataType::Int.is_quantitative());
        assert!(!DataType::Nominal.is_quantitative());
    }

    #[test]
    fn schema_serde_roundtrip() {
        let s = flights_like();
        let js = serde_json::to_string(&s).unwrap();
        let back: Schema = serde_json::from_str(&js).unwrap();
        assert_eq!(s, back);
    }
}
