//! Text loader for real rating data in the common `user item rating`
//! line format (MovieLens `::`/tab/space-separated, Netflix probe exports,
//! LIBMF input files).

use cumf_sparse::coo::CooMatrix;
use std::io::BufRead;
use std::path::Path;

/// Errors from parsing a ratings file.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line that could not be parsed, with its 1-based number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
}

impl core::fmt::Display for LoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "I/O error: {e}"),
            LoadError::Parse { line, text } => write!(f, "parse error at line {line}: {text:?}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Parse `user item rating` triplets from a reader. Separators may be
/// whitespace or `::`; lines starting with `#` or `%` are comments. User
/// and item ids may be arbitrary (possibly sparse) non-negative integers;
/// they are densified to `0..m`, `0..n` in first-seen order. A non-finite
/// rating (`nan`, `inf`) is a [`LoadError::Parse`] at its line: one NaN
/// would poison every factor it touches.
pub fn parse_ratings<R: BufRead>(reader: R) -> Result<CooMatrix, LoadError> {
    let mut triplets: Vec<(u64, u64, f32)> = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let cleaned = trimmed.replace("::", " ");
        let mut parts = cleaned.split_whitespace();
        let parsed = (|| {
            let u: u64 = parts.next()?.parse().ok()?;
            let v: u64 = parts.next()?.parse().ok()?;
            let r: f32 = parts.next()?.parse().ok()?;
            r.is_finite().then_some((u, v, r))
        })();
        match parsed {
            Some(t) => triplets.push(t),
            None => {
                return Err(LoadError::Parse {
                    line: idx + 1,
                    text: trimmed.to_string(),
                })
            }
        }
    }

    // Densify ids in first-seen order.
    let mut user_map = std::collections::HashMap::new();
    let mut item_map = std::collections::HashMap::new();
    let mut coo_entries = Vec::with_capacity(triplets.len());
    for (u, v, r) in triplets {
        let next_u = user_map.len() as u32;
        let uu = *user_map.entry(u).or_insert(next_u);
        let next_v = item_map.len() as u32;
        let vv = *item_map.entry(v).or_insert(next_v);
        coo_entries.push(cumf_sparse::coo::Entry {
            row: uu,
            col: vv,
            value: r,
        });
    }
    Ok(CooMatrix::from_entries(
        user_map.len().max(1),
        item_map.len().max(1),
        coo_entries,
    ))
}

/// Load a ratings file from disk.
pub fn load_ratings_file(path: impl AsRef<Path>) -> Result<CooMatrix, LoadError> {
    let file = std::fs::File::open(path)?;
    parse_ratings(std::io::BufReader::new(file))
}

/// Write ratings in the MovieLens `user::item::rating` text format — the
/// round-trip partner of [`parse_ratings`]. Entries are written in stored
/// order with their raw (dense, 0-based) ids. Values round-trip exactly
/// (Rust's float `Display` is shortest-round-trip); ids round-trip up to
/// the parser's first-seen densification — identity when entries appear
/// in id order, a consistent relabeling otherwise.
pub fn write_movielens<W: std::io::Write>(ratings: &CooMatrix, mut w: W) -> std::io::Result<()> {
    for e in ratings.entries() {
        writeln!(w, "{}::{}::{}", e.row, e.col, e.value)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_whitespace_format() {
        let input = "1 10 4.5\n2 10 3.0\n1 20 5\n";
        let m = parse_ratings(Cursor::new(input)).unwrap();
        assert_eq!((m.rows(), m.cols(), m.nnz()), (2, 2, 3));
        assert_eq!(m.entries()[0].value, 4.5);
    }

    #[test]
    fn parses_movielens_double_colon() {
        let input = "1::1193::5\n1::661::3\n2::1193::4\n";
        let m = parse_ratings(Cursor::new(input)).unwrap();
        assert_eq!((m.rows(), m.cols(), m.nnz()), (2, 2, 3));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let input = "# header\n\n% matrix-market style\n5 7 1.0\n";
        let m = parse_ratings(Cursor::new(input)).unwrap();
        assert_eq!(m.nnz(), 1);
        // Sparse ids densified to 0.
        assert_eq!(m.entries()[0].row, 0);
        assert_eq!(m.entries()[0].col, 0);
    }

    #[test]
    fn densifies_in_first_seen_order() {
        let input = "100 7 1\n3 7 2\n100 9 3\n";
        let m = parse_ratings(Cursor::new(input)).unwrap();
        assert_eq!(m.entries()[0].row, 0); // user 100 → 0
        assert_eq!(m.entries()[1].row, 1); // user 3 → 1
        assert_eq!(m.entries()[2].col, 1); // item 9 → 1
    }

    #[test]
    fn rejects_non_finite_ratings_with_their_line_number() {
        let err = parse_ratings(Cursor::new("1 1 nan\n2 1 inf\n1 2 4.0\n")).unwrap_err();
        assert!(matches!(err, LoadError::Parse { line: 1, .. }), "{err}");
        let err = parse_ratings(Cursor::new("1 1 4.0\n2 1 inf\n")).unwrap_err();
        assert!(matches!(err, LoadError::Parse { line: 2, ref text } if text == "2 1 inf"));
    }

    #[test]
    fn reports_parse_error_with_line_number() {
        let input = "1 2 3\nnot a rating\n";
        match parse_ratings(Cursor::new(input)) {
            Err(LoadError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_fields_are_errors() {
        assert!(parse_ratings(Cursor::new("1 2\n")).is_err());
    }

    #[test]
    fn empty_input_yields_empty_matrix() {
        let m = parse_ratings(Cursor::new("")).unwrap();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn write_then_parse_round_trips_dense_ratings() {
        let mut coo = CooMatrix::new(3, 2);
        coo.push(0, 0, 4.5);
        coo.push(0, 1, 3.0);
        coo.push(1, 0, 5.0);
        coo.push(2, 1, 1.25);
        let mut text = Vec::new();
        write_movielens(&coo, &mut text).unwrap();
        assert_eq!(
            String::from_utf8(text.clone()).unwrap(),
            "0::0::4.5\n0::1::3\n1::0::5\n2::1::1.25\n"
        );
        let back = parse_ratings(Cursor::new(text)).unwrap();
        assert_eq!((back.rows(), back.cols(), back.nnz()), (3, 2, 4));
        for (a, b) in coo.entries().iter().zip(back.entries()) {
            assert_eq!((a.row, a.col, a.value), (b.row, b.col, b.value));
        }
    }
}
