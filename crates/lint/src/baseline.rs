//! The ratcheted baseline: `LINT_BASELINE.json` load, match, and render.
//!
//! A baseline is a checked-in list of *known* findings, each carried by its
//! stable fingerprint and a written reason — debt acknowledged, not debt
//! hidden. `crowdkit-lint --baseline LINT_BASELINE.json` then fails only on
//! findings **not** in the list (new debt) and on baseline entries that no
//! longer match anything (stale debt: the finding was fixed, so the entry
//! must be deleted — the ratchet only turns one way). The file also carries
//! a `burn_down` counter that must equal the entry count, which makes the
//! debt total an explicit, reviewed number in every diff that touches it.
//!
//! The format is parsed by the tiny recursive-descent JSON reader below —
//! the linter stays dependency-free, and the subset it accepts (objects,
//! arrays, strings with the common escapes, integers, booleans, null) is
//! exactly what the tool itself writes via `--write-baseline`.

use std::collections::BTreeMap;

/// One acknowledged finding.
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    /// Stable fingerprint from `LINT.json` (`rule|file|scope|key|ordinal`
    /// hashed — line-independent).
    pub fingerprint: String,
    /// Rule id, for human diffing of the file.
    pub rule: String,
    /// File the finding was in when baselined.
    pub file: String,
    /// Why this debt is acknowledged rather than fixed.
    pub reason: String,
}

/// The parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Declared debt total; must equal `entries.len()`.
    pub burn_down: usize,
    /// Acknowledged findings.
    pub entries: Vec<BaselineEntry>,
}

/// Minimal JSON value for the reader below.
#[derive(Debug, Clone)]
enum Json {
    /// Object with ordered keys.
    Obj(BTreeMap<String, Json>),
    /// Array.
    Arr(Vec<Json>),
    /// String.
    Str(String),
    /// Number (only non-negative integers are ever meaningful here).
    Num(f64),
    /// `true`, `false`, or `null` — accepted, never meaningful in the
    /// baseline format, so the value is not kept.
    Null,
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Self {
        Reader {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => Err(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char, self.pos, got as char
            )),
            None => Err(format!("expected `{}`, found end of input", b as char)),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Null),
            Some(b'f') => self.literal("false", Json::Null),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, word: &str, val: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_owned())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_owned());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".to_owned());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Re-borrow the full char: strings are valid UTF-8, so
                    // step back and take the whole scalar.
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-utf8 string".to_owned())?;
                    let Some(c) = rest.chars().next() else {
                        return Err("unterminated string".to_owned());
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            let key = self.string()?;
            self.expect_byte(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut arr = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(arr));
        }
        loop {
            arr.push(self.value()?);
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(arr));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

fn get_str(obj: &BTreeMap<String, Json>, key: &str) -> Result<String, String> {
    match obj.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("entry missing string field `{key}`")),
    }
}

/// Parses and validates a baseline file. Errors are human sentences —
/// they end up verbatim in CI output.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let mut r = Reader::new(text);
    let root = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(format!("trailing garbage at byte {}", r.pos));
    }
    let Json::Obj(obj) = root else {
        return Err("baseline root must be a JSON object".to_owned());
    };
    let burn_down = match obj.get("burn_down") {
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as usize,
        _ => return Err("baseline must declare an integer `burn_down`".to_owned()),
    };
    let entries_json = match obj.get("entries") {
        Some(Json::Arr(a)) => a,
        _ => return Err("baseline must have an `entries` array".to_owned()),
    };
    let mut entries = Vec::with_capacity(entries_json.len());
    let mut seen = BTreeMap::new();
    for (i, e) in entries_json.iter().enumerate() {
        let Json::Obj(eo) = e else {
            return Err(format!("entry {i} is not an object"));
        };
        let entry = BaselineEntry {
            fingerprint: get_str(eo, "fingerprint")?,
            rule: get_str(eo, "rule")?,
            file: get_str(eo, "file")?,
            reason: get_str(eo, "reason")?,
        };
        if entry.reason.trim().len() < 3 {
            return Err(format!(
                "entry {i} ({}) has no written reason — baselined debt must say why it \
is acknowledged",
                entry.fingerprint
            ));
        }
        if let Some(prev) = seen.insert(entry.fingerprint.clone(), i) {
            return Err(format!(
                "duplicate fingerprint {} (entries {prev} and {i})",
                entry.fingerprint
            ));
        }
        entries.push(entry);
    }
    if burn_down != entries.len() {
        return Err(format!(
            "burn_down is {} but there are {} entries — the counter must track the \
debt exactly (it only goes down)",
            burn_down,
            entries.len()
        ));
    }
    Ok(Baseline { burn_down, entries })
}

/// Renders a baseline file from `(fingerprint, rule, file, reason)` rows —
/// the `--write-baseline` output, byte-identical when re-generated over the
/// same findings.
pub fn render(rows: &[(String, String, String, String)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"burn_down\": {},\n", rows.len()));
    out.push_str("  \"entries\": [");
    for (i, (fp, rule, file, reason)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"fingerprint\": ");
        escape(fp, &mut out);
        out.push_str(", \"rule\": ");
        escape(rule, &mut out);
        out.push_str(", \"file\": ");
        escape(file, &mut out);
        out.push_str(", \"reason\": ");
        escape(reason, &mut out);
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_validation() {
        let rows = vec![(
            "a1b2c3d4e5f60718".to_owned(),
            "CONC003".to_owned(),
            "crates/sql/src/exec.rs".to_owned(),
            "session guard across crowd I/O; burn down in the crowdkitd PR".to_owned(),
        )];
        let text = render(&rows);
        let b = parse(&text).expect("roundtrip parses");
        assert_eq!(b.burn_down, 1);
        assert_eq!(b.entries[0].fingerprint, "a1b2c3d4e5f60718");
        assert_eq!(b.entries[0].rule, "CONC003");
    }

    #[test]
    fn rejects_counter_drift_missing_reasons_and_duplicates() {
        let drift = r#"{"burn_down": 2, "entries": [
            {"fingerprint": "aa", "rule": "R", "file": "f", "reason": "valid reason"}
        ]}"#;
        assert!(parse(drift).is_err());
        let no_reason = r#"{"burn_down": 1, "entries": [
            {"fingerprint": "aa", "rule": "R", "file": "f", "reason": ""}
        ]}"#;
        assert!(parse(no_reason).is_err());
        let dup = r#"{"burn_down": 2, "entries": [
            {"fingerprint": "aa", "rule": "R", "file": "f", "reason": "valid reason"},
            {"fingerprint": "aa", "rule": "R", "file": "g", "reason": "another reason"}
        ]}"#;
        assert!(parse(dup).is_err());
    }

    #[test]
    fn string_escapes_parse() {
        let text = r#"{"burn_down": 1, "entries": [
            {"fingerprint": "ff", "rule": "R", "file": "a\"b\\c", "reason": "tab\there é"}
        ]}"#;
        let b = parse(text).expect("escapes parse");
        assert_eq!(b.entries[0].file, "a\"b\\c");
        assert_eq!(b.entries[0].reason, "tab\there é");
    }
}
