//! Column resolution for the scalar oracle: binding query column names to
//! dataset storage, following star-schema foreign keys when necessary.

use idebench_core::{CoreError, Query};
use idebench_storage::{Column, ColumnData, Dataset, Ints};

/// A query column bound to physical storage.
///
/// For de-normalized datasets `fk` is `None` and `column` indexes directly
/// by row. For star schemas, a column living in a dimension table is
/// accessed through the fact table's foreign-key column: the value for fact
/// row `r` is `column[fk[r]]` — the join, evaluated per row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedColumn<'a> {
    column: &'a Column,
    fk: Option<&'a Ints>,
}

impl<'a> ResolvedColumn<'a> {
    /// Resolves `name` against a dataset.
    pub(crate) fn new(dataset: &'a Dataset, name: &str) -> Result<Self, CoreError> {
        match dataset {
            Dataset::Denormalized(t) => Ok(ResolvedColumn {
                column: t.column(name)?,
                fk: None,
            }),
            Dataset::Star(s) => {
                if let Ok(c) = s.fact().column(name) {
                    return Ok(ResolvedColumn {
                        column: c,
                        fk: None,
                    });
                }
                let (spec, dim) = s.dimension_of_column(name).ok_or_else(|| {
                    CoreError::Storage(format!("unknown column {name} in star schema"))
                })?;
                let ColumnData::Int(fk) = s.fact().column(&spec.fk_name)?.data() else {
                    return Err(CoreError::Storage(format!("fk {} not int", spec.fk_name)));
                };
                Ok(ResolvedColumn {
                    column: dim.column(name)?,
                    fk: Some(fk),
                })
            }
        }
    }

    #[inline]
    fn physical_row(&self, row: usize) -> usize {
        match self.fk {
            Some(fk) => fk.get(row) as usize,
            None => row,
        }
    }

    /// Numeric value at the (fact) row, `None` when null.
    #[inline]
    pub(crate) fn numeric_at(&self, row: usize) -> Option<f64> {
        self.column.numeric_at(self.physical_row(row))
    }

    /// Dictionary code at the (fact) row, `None` when null or non-nominal.
    #[inline]
    pub(crate) fn code_at(&self, row: usize) -> Option<u32> {
        self.column.code_at(self.physical_row(row))
    }

    /// The underlying column (dictionary access etc.).
    pub(crate) fn column(&self) -> &'a Column {
        self.column
    }
}

/// A fully-resolved query for the scalar oracle: compiled filter, binning
/// and measure accessors, valid for the lifetime of the dataset borrow.
pub(crate) struct ResolvedQuery<'a> {
    /// Compiled filter; `None` means all rows match.
    pub filter: Option<crate::filter::CompiledFilter<'a>>,
    /// Compiled binning.
    pub binning: crate::binning::CompiledBinning<'a>,
    /// Measure column per aggregate (`None` for COUNT).
    pub measures: Vec<Option<ResolvedColumn<'a>>>,
    /// Number of fact rows.
    pub num_rows: usize,
}

impl<'a> ResolvedQuery<'a> {
    /// Binds `query` against `dataset`.
    pub(crate) fn new(dataset: &'a Dataset, query: &Query) -> Result<Self, CoreError> {
        let filter = query
            .filter()
            .map(|f| crate::filter::CompiledFilter::compile(dataset, f))
            .transpose()?;
        let binning = crate::binning::CompiledBinning::compile(dataset, query.binning())?;
        let measures = query
            .aggregates()
            .iter()
            .map(|a| {
                a.dimension
                    .as_deref()
                    .map(|d| ResolvedColumn::new(dataset, d))
                    .transpose()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResolvedQuery {
            filter,
            binning,
            measures,
            num_rows: dataset.fact_rows(),
        })
    }

    /// Whether the (fact) row passes the filter.
    #[inline]
    pub(crate) fn matches(&self, row: usize) -> bool {
        self.filter.as_ref().is_none_or(|f| f.matches(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_storage::{DataType, DimensionSpec, StarSchema, TableBuilder, Value};
    use std::sync::Arc;

    fn denorm() -> Dataset {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
            ],
        );
        b.push_row(&["AA".into(), 5.0.into()]).unwrap();
        b.push_row(&["DL".into(), 15.0.into()]).unwrap();
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn star() -> Dataset {
        let mut f = TableBuilder::with_fields(
            "flights",
            &[
                ("dep_delay", DataType::Float),
                ("carrier_key", DataType::Int),
            ],
        );
        f.push_row(&[5.0.into(), 1i64.into()]).unwrap();
        f.push_row(&[15.0.into(), 0i64.into()]).unwrap();
        let mut d = TableBuilder::with_fields("carriers", &[("carrier", DataType::Nominal)]);
        d.push_row(&[Value::Str("AA".into())]).unwrap();
        d.push_row(&[Value::Str("DL".into())]).unwrap();
        let schema = StarSchema::new(
            Arc::new(f.finish()),
            vec![(
                DimensionSpec::new("carriers", "carrier_key", vec!["carrier".into()]),
                Arc::new(d.finish()),
            )],
        )
        .unwrap();
        Dataset::Star(Arc::new(schema))
    }

    #[test]
    fn direct_column_access() {
        let ds = denorm();
        let c = ResolvedColumn::new(&ds, "dep_delay").unwrap();
        assert_eq!(c.numeric_at(1), Some(15.0));
    }

    #[test]
    fn star_column_goes_through_fk() {
        let ds = star();
        let c = ResolvedColumn::new(&ds, "carrier").unwrap();
        // Row 0 has carrier_key = 1 → "DL" (code 1 in dim dictionary).
        assert_eq!(c.code_at(0), Some(1));
        assert_eq!(c.code_at(1), Some(0));
    }

    #[test]
    fn unknown_column_errors() {
        let ds = star();
        assert!(ResolvedColumn::new(&ds, "ghost").is_err());
    }
}
