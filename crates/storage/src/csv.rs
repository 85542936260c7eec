//! Minimal CSV reader/writer for IDEBench tables.
//!
//! The paper's data-preparation experiment (§5.2) loads data from CSV files
//! into each system; this module provides the equivalent serialization. The
//! dialect is deliberately simple — comma-separated, no quoting — which is
//! sufficient because the flights dataset contains no embedded commas.

use crate::error::StorageError;
use crate::schema::{DataType, Field, Schema};
use crate::table::{Table, TableBuilder, Value};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Writes a table as a CSV document with one header line of `name:type`.
pub fn write_csv<W: Write>(table: &Table, out: W) -> Result<(), StorageError> {
    let mut w = BufWriter::new(out);
    let header: Vec<String> = table
        .schema()
        .fields()
        .iter()
        .map(|f| format!("{}:{}", f.name, f.dtype.name()))
        .collect();
    writeln!(w, "{}", header.join(","))?;
    let mut line = String::new();
    for row in 0..table.num_rows() {
        line.clear();
        for col in 0..table.num_columns() {
            if col > 0 {
                line.push(',');
            }
            match table.value_at(col, row) {
                Value::Float(x) => {
                    // Round-trippable float formatting.
                    line.push_str(&format!("{x}"));
                }
                Value::Int(x) => line.push_str(&format!("{x}")),
                Value::Str(s) => line.push_str(&s),
                Value::Null => {}
            }
        }
        writeln!(w, "{line}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a table from CSV produced by [`write_csv`] (header carries types).
pub fn read_csv<R: Read>(name: &str, input: R) -> Result<Table, StorageError> {
    let mut reader = BufReader::new(input);
    let mut header = String::new();
    if reader.read_line(&mut header)? == 0 {
        return Err(StorageError::Csv {
            line: 1,
            message: "empty input".into(),
        });
    }
    let fields = header
        .trim_end()
        .split(',')
        .enumerate()
        .map(|(i, spec)| {
            let (name, ty) = spec.split_once(':').ok_or(StorageError::Csv {
                line: 1,
                message: format!("header field {i} missing ':type' suffix"),
            })?;
            let dtype = match ty {
                "float" => DataType::Float,
                "int" => DataType::Int,
                "nominal" => DataType::Nominal,
                other => {
                    return Err(StorageError::Csv {
                        line: 1,
                        message: format!("unknown type {other:?}"),
                    })
                }
            };
            Ok(Field::new(name, dtype))
        })
        .collect::<Result<Vec<_>, StorageError>>()?;
    if let Some(dup) = fields
        .iter()
        .enumerate()
        .find(|(i, f)| fields[..*i].iter().any(|g| g.name == f.name))
    {
        return Err(StorageError::Csv {
            line: 1,
            message: format!("duplicate field name {:?}", dup.1.name),
        });
    }
    let schema = Schema::new(fields);
    let ncols = schema.len();
    let dtypes: Vec<DataType> = schema.fields().iter().map(|f| f.dtype).collect();
    let mut builder = TableBuilder::new(name, schema);

    let mut line = String::new();
    let mut row: Vec<Value> = Vec::with_capacity(ncols);
    let mut lineno = 1usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.is_empty() {
            continue;
        }
        row.clear();
        for (i, cell) in trimmed.split(',').enumerate() {
            if i >= ncols {
                return Err(StorageError::Csv {
                    line: lineno,
                    message: format!("too many fields (expected {ncols})"),
                });
            }
            let v = if cell.is_empty() {
                Value::Null
            } else {
                match dtypes[i] {
                    DataType::Float => {
                        Value::Float(cell.parse::<f64>().map_err(|e| StorageError::Csv {
                            line: lineno,
                            message: format!("bad float {cell:?}: {e}"),
                        })?)
                    }
                    DataType::Int => {
                        Value::Int(cell.parse::<i64>().map_err(|e| StorageError::Csv {
                            line: lineno,
                            message: format!("bad int {cell:?}: {e}"),
                        })?)
                    }
                    DataType::Nominal => Value::Str(cell.to_string()),
                }
            };
            row.push(v);
        }
        if row.len() != ncols {
            return Err(StorageError::Csv {
                line: lineno,
                message: format!("expected {ncols} fields, got {}", row.len()),
            });
        }
        builder.push_row(&row)?;
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
                ("distance", DataType::Int),
            ],
        );
        b.push_row(&["AA".into(), 5.25.into(), 300i64.into()])
            .unwrap();
        b.push_row(&["DL".into(), Value::Null, 900i64.into()])
            .unwrap();
        b.finish()
    }

    #[test]
    fn csv_roundtrip_preserves_table() {
        let t = sample();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv("flights", buf.as_slice()).unwrap();
        assert_eq!(back.num_rows(), 2);
        assert_eq!(back.schema(), t.schema());
        assert_eq!(back.value_at(0, 0), Value::Str("AA".into()));
        assert_eq!(back.value_at(1, 0), Value::Float(5.25));
        assert_eq!(back.value_at(1, 1), Value::Null);
        assert_eq!(back.value_at(2, 1), Value::Int(900));
    }

    #[test]
    fn header_is_typed() {
        let t = sample();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("carrier:nominal,dep_delay:float,distance:int\n"));
    }

    #[test]
    fn bad_float_reports_line() {
        let input = "x:float\n1.5\nnope\n";
        let err = read_csv("t", input.as_bytes()).unwrap_err();
        match err {
            StorageError::Csv { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn duplicate_header_names_rejected() {
        let err = read_csv("t", "x:int,x:int\n1,2\n".as_bytes()).unwrap_err();
        match err {
            StorageError::Csv { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("duplicate"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Same name, different types: still one column name twice.
        assert!(read_csv("t", "x:int,y:float,x:nominal\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(read_csv("t", "".as_bytes()).is_err());
    }

    #[test]
    fn blank_lines_skipped() {
        let input = "x:int\n1\n\n2\n";
        let t = read_csv("t", input.as_bytes()).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn wrong_arity_rejected() {
        let input = "x:int,y:int\n1,2\n3\n";
        assert!(read_csv("t", input.as_bytes()).is_err());
        let input2 = "x:int\n1,2\n";
        assert!(read_csv("t", input2.as_bytes()).is_err());
    }
}
