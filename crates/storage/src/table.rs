//! Immutable tables and the builder used to construct them.

use crate::column::{Column, ColumnData};
use crate::dictionary::Dictionary;
use crate::error::StorageError;
use crate::schema::{DataType, Schema};
use crate::selection::SelVec;
use std::sync::Arc;

/// A dynamically-typed cell value, used at API boundaries (row append,
/// filter literals, tests). The hot paths never touch `Value`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Quantitative float.
    Float(f64),
    /// Integer.
    Int(i64),
    /// Nominal category as a string.
    Str(String),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Float(_) => "float",
            Value::Int(_) => "int",
            Value::Str(_) => "nominal",
            Value::Null => "null",
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

/// An immutable, named collection of equal-length columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    nrows: usize,
}

impl Table {
    /// Builds a table from parts, validating column counts and lengths.
    ///
    /// Every plain column is stored in the narrowest lossless encoding
    /// [`crate::encoding`] finds for it; columns that are already narrow
    /// (or have no narrow encoding) are kept as they are, payloads shared.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
    ) -> Result<Self, StorageError> {
        assert_eq!(schema.len(), columns.len(), "schema/column count mismatch");
        let nrows = columns.first().map_or(0, Column::len);
        for c in &columns {
            if c.len() != nrows {
                return Err(StorageError::LengthMismatch {
                    expected: nrows,
                    got: c.len(),
                });
            }
        }
        Ok(Table {
            name: name.into(),
            schema,
            columns: columns.into_iter().map(Column::narrowed).collect(),
            nrows,
        })
    }

    /// Table name (e.g. `"flights"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column by position.
    pub fn column_at(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column, StorageError> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Cell accessor for tests/reports (slow path).
    pub fn value_at(&self, col: usize, row: usize) -> Value {
        let c = &self.columns[col];
        if !c.is_valid(row) {
            return Value::Null;
        }
        match c.data() {
            ColumnData::Float(_) | ColumnData::Decimal(..) => {
                Value::Float(c.numeric_at(row).expect("valid row"))
            }
            ColumnData::Int(v) => Value::Int(v.get(row)),
            ColumnData::Nominal(v, d) => {
                Value::Str(d.value(v.get(row) as u32).unwrap_or_default().to_string())
            }
        }
    }

    /// Materializes the given rows (in order) into a new table.
    pub fn take(&self, rows: &[usize]) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|c| c.take(rows.iter().copied()))
            .collect();
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns,
            nrows: rows.len(),
        }
    }

    /// Renames the table (used when deriving samples / normalized tables).
    pub fn renamed(mut self, name: impl Into<String>) -> Table {
        self.name = name.into();
        self
    }

    /// In-memory footprint in bytes of the column payloads, as encoded
    /// (validity bitmaps not included).
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.data().payload_bytes()).sum()
    }
}

/// Incremental row-oriented builder producing a columnar [`Table`].
///
/// Dictionaries for nominal columns are created per column and shared with
/// the finished table.
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    floats: Vec<Option<Vec<f64>>>,
    ints: Vec<Option<Vec<i64>>>,
    codes: Vec<Option<(Vec<u32>, Dictionary)>>,
    nulls: Vec<Vec<usize>>,
    nrows: usize,
}

impl TableBuilder {
    /// Starts a builder for the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let n = schema.len();
        let mut floats = Vec::with_capacity(n);
        let mut ints = Vec::with_capacity(n);
        let mut codes = Vec::with_capacity(n);
        for f in schema.fields() {
            floats.push(matches!(f.dtype, DataType::Float).then(Vec::new));
            ints.push(matches!(f.dtype, DataType::Int).then(Vec::new));
            codes.push(
                matches!(f.dtype, DataType::Nominal).then(|| (Vec::new(), Dictionary::new())),
            );
        }
        TableBuilder {
            name: name.into(),
            schema,
            floats,
            ints,
            codes,
            nulls: vec![Vec::new(); n],
            nrows: 0,
        }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn with_fields(name: impl Into<String>, fields: &[(&str, DataType)]) -> Self {
        Self::new(name, Schema::from_pairs(fields))
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.nrows
    }

    /// True when no row has been appended.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Appends one row. The slice must match the schema in arity and types.
    pub fn push_row(&mut self, row: &[Value]) -> Result<(), StorageError> {
        assert_eq!(row.len(), self.schema.len(), "row arity mismatch");
        for (i, v) in row.iter().enumerate() {
            let field = &self.schema.fields()[i];
            match (field.dtype, v) {
                (DataType::Float, Value::Float(x)) => {
                    self.floats[i].as_mut().expect("float buffer").push(*x)
                }
                (DataType::Float, Value::Int(x)) => self.floats[i]
                    .as_mut()
                    .expect("float buffer")
                    .push(*x as f64),
                (DataType::Int, Value::Int(x)) => {
                    self.ints[i].as_mut().expect("int buffer").push(*x)
                }
                (DataType::Nominal, Value::Str(s)) => {
                    let (buf, dict) = self.codes[i].as_mut().expect("code buffer");
                    let code = dict.intern(s);
                    buf.push(code);
                }
                (_, Value::Null) => {
                    self.nulls[i].push(self.nrows);
                    match field.dtype {
                        DataType::Float => self.floats[i]
                            .as_mut()
                            .expect("float buffer")
                            .push(f64::NAN),
                        DataType::Int => self.ints[i].as_mut().expect("int buffer").push(0),
                        DataType::Nominal => {
                            let (buf, _) = self.codes[i].as_mut().expect("code buffer");
                            buf.push(0);
                        }
                    }
                }
                (dt, v) => {
                    return Err(StorageError::TypeMismatch {
                        column: field.name.clone(),
                        expected: dt.name(),
                        got: v.type_name(),
                    })
                }
            }
        }
        self.nrows += 1;
        Ok(())
    }

    /// Finishes the build, producing an immutable table. The column buffers
    /// move into the table, where [`Table::new`] narrows their encodings.
    pub fn finish(mut self) -> Table {
        let mut columns = Vec::with_capacity(self.schema.len());
        for (i, field) in self.schema.fields().iter().enumerate() {
            let mut col = match field.dtype {
                DataType::Float => Column::float(self.floats[i].take().expect("float buffer")),
                DataType::Int => Column::int(self.ints[i].take().expect("int buffer")),
                DataType::Nominal => {
                    let (buf, dict) = self.codes[i].take().expect("code buffer");
                    Column::nominal(buf, Arc::new(dict))
                }
            };
            if !self.nulls[i].is_empty() {
                let mut validity = SelVec::all(self.nrows);
                for &row in &self.nulls[i] {
                    validity.remove(row);
                }
                col = col.with_validity(validity);
            }
            columns.push(col);
        }
        Table::new(self.name, self.schema, columns).expect("builder produces aligned columns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn small_table() -> Table {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
                ("distance", DataType::Int),
            ],
        );
        b.push_row(&["AA".into(), 5.0.into(), 300i64.into()])
            .unwrap();
        b.push_row(&["DL".into(), (-2.0).into(), 900i64.into()])
            .unwrap();
        b.push_row(&["AA".into(), Value::Null, 120i64.into()])
            .unwrap();
        b.finish()
    }

    #[test]
    fn builder_produces_typed_columns() {
        let t = small_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        let (codes, dict) = t.column("carrier").unwrap().as_nominal().unwrap();
        assert_eq!(&*codes, &[0, 1, 0]);
        assert_eq!(dict.value(1), Some("DL"));
        assert_eq!(
            &*t.column("distance").unwrap().as_int().unwrap(),
            &[300, 900, 120]
        );
    }

    #[test]
    fn nulls_become_invalid_rows() {
        let t = small_table();
        let c = t.column("dep_delay").unwrap();
        assert!(c.is_valid(0));
        assert!(!c.is_valid(2));
        assert_eq!(t.value_at(1, 2), Value::Null);
    }

    #[test]
    fn type_mismatch_is_reported() {
        let mut b = TableBuilder::with_fields("t", &[("x", DataType::Int)]);
        let err = b.push_row(&["oops".into()]).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn int_coerces_into_float_column() {
        let mut b = TableBuilder::with_fields("t", &[("x", DataType::Float)]);
        b.push_row(&[Value::Int(4)]).unwrap();
        let t = b.finish();
        assert_eq!(&*t.column("x").unwrap().as_float().unwrap(), &[4.0]);
    }

    #[test]
    fn take_materializes_listed_rows() {
        let t = small_table();
        let f = t.take(&[0, 2]);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value_at(0, 1), Value::Str("AA".into()));

        let tk = t.take(&[2, 0]);
        assert_eq!(tk.value_at(2, 0), Value::Int(120));
    }

    #[test]
    fn value_at_returns_typed_cells() {
        let t = small_table();
        assert_eq!(t.value_at(0, 1), Value::Str("DL".into()));
        assert_eq!(t.value_at(1, 0), Value::Float(5.0));
        assert_eq!(t.value_at(2, 2), Value::Int(120));
    }

    #[test]
    fn byte_size_counts_payloads() {
        let t = small_table();
        // 3 rows: u8 codes 3*1 + float 3*8 (a null's NaN placeholder keeps
        // the column plain) + u16 ints 3*2.
        assert_eq!(t.byte_size(), 3 + 24 + 6);
    }

    #[test]
    fn new_narrows_plain_columns_losslessly() {
        let schema = Schema::new(vec![
            Field::new("d", DataType::Float),
            Field::new("k", DataType::Int),
        ]);
        let d = Column::float(vec![-4.5, 0.0, 12.25]);
        let k = Column::int(vec![7, 1]).take([0, 1, 1]);
        let t = Table::new("t", schema, vec![d.clone(), k.clone()]).unwrap();
        assert!(matches!(
            t.column_at(0).data(),
            ColumnData::Decimal(crate::Ints::I16(_), 2)
        ));
        assert_eq!(t.column_at(0), &d);
        assert!(matches!(
            t.column_at(1).data(),
            ColumnData::Int(crate::Ints::U8(_))
        ));
        assert_eq!(t.column_at(1), &k);
        assert_eq!(t.value_at(0, 2), Value::Float(12.25));
    }

    #[test]
    fn table_length_mismatch_detected() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let cols = vec![Column::int(vec![1, 2]), Column::int(vec![1])];
        assert!(matches!(
            Table::new("t", schema, cols),
            Err(StorageError::LengthMismatch { .. })
        ));
    }
}
