//! Plain-text table rendering for experiment output.

/// Render an aligned text table. Every row must have `headers.len()`
/// cells. Widths count characters, not bytes, so a cell holding `–` or
/// `×` lines up with the rest.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let width = |cell: &str| cell.chars().count();
    let mut widths: Vec<usize> = headers.iter().map(|h| width(h)).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(width(cell));
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(cell);
            line.push_str(&" ".repeat(widths[i].saturating_sub(width(cell))));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format an optional millisecond value.
pub fn ms(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.1}"),
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_output() {
        let t = render(
            &["tc", "value"],
            &[
                vec!["TC1".into(), "3".into()],
                vec!["TC10".into(), "12345".into()],
                vec!["T×2".into(), "1 [0–2]".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "tc    value");
        assert_eq!(lines[1], "-".repeat(4 + 2 + 7), "the rule counts characters");
        assert_eq!(lines[2], "TC1   3");
        assert_eq!(lines[3], "TC10  12345");
        assert_eq!(lines[4], "T×2   1 [0–2]", "multi-byte cells pad by characters");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = render(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(Some(104.25)), "104.2");
        assert_eq!(ms(None), "-");
    }
}
