//! Minimal N-Triples import/export.
//!
//! Supports the line-based subset needed for the benchmark datasets:
//! `<iri> <iri> <iri> .` and `<iri> <iri> "literal" .` with the standard
//! string escapes. Language tags and datatype suffixes after the closing
//! quote are preserved verbatim as part of the literal text, which is all
//! the dual-simulation machinery needs (literals are opaque nodes).

use crate::{GraphDb, GraphDbBuilder, GraphError, NodeKind};
use std::fmt::Write as _;

/// Parses an N-Triples document into a [`GraphDb`].
///
/// Empty lines and `#` comment lines are skipped.
pub fn parse_ntriples(input: &str) -> Result<GraphDb, GraphError> {
    let mut builder = GraphDbBuilder::new();
    for (idx, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let line_no = idx + 1;
        let mut rest = line;
        let s = take_iri(&mut rest, line_no)?;
        let p = take_iri(&mut rest, line_no)?;
        let rest_trim = rest.trim_start();
        if let Some(stripped) = rest_trim.strip_prefix('"') {
            let (lit, tail) = take_literal(stripped, line_no)?;
            expect_dot(tail, line_no)?;
            builder.add_attribute(&s, &p, &lit)?;
        } else {
            let mut tail = rest_trim;
            let o = take_iri(&mut tail, line_no)?;
            expect_dot(tail, line_no)?;
            builder.add_triple(&s, &p, &o)?;
        }
    }
    Ok(builder.finish())
}

/// Serializes a [`GraphDb`] as N-Triples, one triple per line, sorted by
/// `(label, subject, object)` identifier for determinism.
pub fn write_ntriples(db: &GraphDb) -> String {
    let mut out = String::new();
    for t in db.triples() {
        let s = db.node_name(t.s);
        let p = db.label_name(t.p);
        match db.node_kind(t.o) {
            NodeKind::Iri => {
                let _ = writeln!(out, "<{s}> <{p}> <{}> .", db.node_name(t.o));
            }
            NodeKind::Literal => {
                let _ = writeln!(out, "<{s}> <{p}> \"{}\" .", escape(db.node_name(t.o)));
            }
        }
    }
    out
}

fn take_iri(rest: &mut &str, line: usize) -> Result<String, GraphError> {
    let trimmed = rest.trim_start();
    let Some(stripped) = trimmed.strip_prefix('<') else {
        return Err(GraphError::Parse {
            line,
            message: format!("expected '<', found {:?}", head(trimmed)),
        });
    };
    let Some(end) = stripped.find('>') else {
        return Err(GraphError::Parse {
            line,
            message: "unterminated IRI".into(),
        });
    };
    let iri = stripped[..end].to_owned();
    *rest = &stripped[end + 1..];
    Ok(iri)
}

fn take_literal(s: &str, line: usize) -> Result<(String, &str), GraphError> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                // Keep any language tag / datatype annotation as part of
                // the literal text so round-tripping stays lossless enough.
                let mut tail = &s[i + 1..];
                if let Some(tag_end) = annotation_end(tail) {
                    out.push_str(&tail[..tag_end]);
                    tail = &tail[tag_end..];
                }
                return Ok((out, tail));
            }
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, other)) => {
                    return Err(GraphError::Parse {
                        line,
                        message: format!("unknown escape \\{other}"),
                    })
                }
                None => {
                    return Err(GraphError::Parse {
                        line,
                        message: "dangling escape at end of literal".into(),
                    })
                }
            },
            _ => out.push(c),
        }
    }
    Err(GraphError::Parse {
        line,
        message: "unterminated literal".into(),
    })
}

/// Length of a `@lang` or `^^<iri>` annotation prefix of `tail`, if any.
fn annotation_end(tail: &str) -> Option<usize> {
    if tail.starts_with('@') {
        let end = tail.find(|c: char| c.is_whitespace()).unwrap_or(tail.len());
        Some(end)
    } else if tail.starts_with("^^<") {
        tail.find('>').map(|i| i + 1)
    } else {
        None
    }
}

fn expect_dot(rest: &str, line: usize) -> Result<(), GraphError> {
    let t = rest.trim();
    if t == "." {
        Ok(())
    } else {
        Err(GraphError::Parse {
            line,
            message: format!("expected terminating '.', found {:?}", head(t)),
        })
    }
}

/// At most the first 12 bytes of `s`, cut back to a char boundary, for
/// error messages.
fn head(s: &str) -> &str {
    let mut end = s.len().min(12);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_object_and_literal_triples() {
        let db = parse_ntriples(
            "# the Saint John example of Fig. 1(a)\n\
             <H. Saltzman> <born_in> <Saint John> .\n\
             <Saint John> <population> \"70063\" .\n",
        )
        .unwrap();
        assert_eq!(db.num_triples(), 2);
        let sj = db.node_id("Saint John").unwrap();
        assert_eq!(db.node_kind(sj), NodeKind::Iri);
        let lit = db.node_id("70063").unwrap();
        assert_eq!(db.node_kind(lit), NodeKind::Literal);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let db = parse_ntriples("\n# nothing\n   \n<a> <p> <b> .\n").unwrap();
        assert_eq!(db.num_triples(), 1);
    }

    #[test]
    fn literal_escapes_round_trip() {
        let mut b = GraphDbBuilder::new();
        b.add_attribute("s", "p", "line1\nline2 \"quoted\" \\ end")
            .unwrap();
        let db = b.finish();
        let text = write_ntriples(&db);
        let db2 = parse_ntriples(&text).unwrap();
        assert_eq!(db2.num_triples(), 1);
        assert!(db2.node_id("line1\nline2 \"quoted\" \\ end").is_some());
    }

    #[test]
    fn language_tags_and_datatypes_are_preserved() {
        let db = parse_ntriples(
            "<a> <p> \"hallo\"@de .\n\
             <a> <q> \"1\"^^<http://www.w3.org/2001/XMLSchema#int> .\n",
        )
        .unwrap();
        assert!(db.node_id("hallo@de").is_some());
        assert!(db
            .node_id("1^^<http://www.w3.org/2001/XMLSchema#int>")
            .is_some());
    }

    #[test]
    fn round_trip_is_stable() {
        let text = "<a> <p> <b> .\n<a> <q> \"lit\" .\n<b> <p> <c> .\n";
        let db = parse_ntriples(text).unwrap();
        let text2 = write_ntriples(&db);
        let db2 = parse_ntriples(&text2).unwrap();
        // Identifiers may be assigned in a different order, so compare at
        // the name level.
        let names = |db: &GraphDb| {
            let mut v: Vec<(String, String, String)> = db
                .triples()
                .map(|t| {
                    (
                        db.node_name(t.s).to_owned(),
                        db.label_name(t.p).to_owned(),
                        db.node_name(t.o).to_owned(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&db), names(&db2));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_ntriples("<a> <p> <b> .\nnot a triple\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn multibyte_chars_at_the_error_excerpt_cut_are_parse_errors() {
        // 'é' straddles byte 12, where the error message excerpt is cut.
        for line in ["0123456789aé", "..@en_:bé'é", "<a> <b> <c> 0123456789aé"] {
            match parse_ntriples(line) {
                Err(GraphError::Parse { line: 1, .. }) => {}
                other => panic!("{line:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn unterminated_literal_is_an_error() {
        assert!(matches!(
            parse_ntriples("<a> <p> \"oops .\n"),
            Err(GraphError::Parse { .. })
        ));
    }
}
