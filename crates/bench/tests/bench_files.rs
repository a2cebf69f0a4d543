//! The checked-in `BENCH_*.json` files record the run-to-run spread of
//! every timing figure, and the machine and revision it was taken on.
//!
//! Each file must carry `nproc` and `git_revision`. A timing figure is a
//! member whose key names a time unit — `ms`, `us` or `ns` as one of its
//! `_`-separated words, which covers `ms`, `wall_ms` and
//! `us_per_update` alike — and it must be `{ "min", "median", "max" }`
//! with min ≤ median ≤ max, never a bare number. The `phases` objects
//! are per-phase medians that add up to a row's median, and are exempt.

use std::path::Path;

/// A parsed JSON value; object members keep their file order.
#[derive(Debug)]
enum Json {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A recursive-descent reader for the JSON the bench binaries write.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut r = Reader {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = r.value()?;
        r.skip_ws();
        if r.pos != r.bytes.len() {
            return Err(r.error("trailing input"));
        }
        Ok(value)
    }

    fn error(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.bytes.get(self.pos) == Some(&b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.expect(b':')?;
                        members.push((key, self.value()?));
                        if self.eat(b'}') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value()?);
                        if self.eat(b']') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            _ => self.literal(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        self.pos += 1;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    out.push(if escaped == b'n' { b'\n' } else { escaped });
                }
                Some(&b) => out.push(b),
            }
            self.pos += 1;
        }
        self.pos += 1;
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }

    fn literal(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
        {
            self.pos += 1;
        }
        match &self.bytes[start..self.pos] {
            b"null" => Ok(Json::Null),
            b"true" | b"false" => Ok(Json::Bool),
            word => std::str::from_utf8(word)
                .ok()
                .and_then(|w| w.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| self.error("expected a value")),
        }
    }
}

/// Whether `key` names a time unit: `ms`, `us` or `ns` as one of its
/// `_`-separated words.
fn is_timing(key: &str) -> bool {
    key.split('_').any(|w| matches!(w, "ms" | "us" | "ns"))
}

/// Checks a spread `{ "min", "median", "max" }` with min ≤ median ≤ max.
fn check_spread(path: &str, value: &Json, faults: &mut Vec<String>) {
    let Json::Obj(members) = value else {
        faults.push(format!("{path}: {value:?} is not {{ min, median, max }}"));
        return;
    };
    let figures: Vec<Option<f64>> = ["min", "median", "max"]
        .iter()
        .map(|want| match members.iter().find(|(k, _)| k == want) {
            Some((_, Json::Num(x))) => Some(*x),
            _ => None,
        })
        .collect();
    match figures[..] {
        [Some(min), Some(median), Some(max)] if members.len() == 3 => {
            if !(min <= median && median <= max) {
                faults.push(format!(
                    "{path}: min {min} ≤ median {median} ≤ max {max} fails"
                ));
            }
        }
        _ => faults.push(format!("{path}: {value:?} is not {{ min, median, max }}")),
    }
}

/// Walks `value`, checking every timing figure outside `phases`.
fn check_timings(path: &str, value: &Json, faults: &mut Vec<String>) {
    match value {
        Json::Obj(members) => {
            for (key, v) in members {
                let at = format!("{path}.{key}");
                if key == "phases" {
                    continue;
                }
                if is_timing(key) {
                    check_spread(&at, v, faults);
                } else {
                    check_timings(&at, v, faults);
                }
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                check_timings(&format!("{path}[{i}]"), v, faults);
            }
        }
        _ => {}
    }
}

/// Every fault of one `BENCH_*.json` text.
fn faults(text: &str) -> Vec<String> {
    let json = match Reader::parse(text) {
        Ok(json) => json,
        Err(e) => return vec![e],
    };
    let mut faults = Vec::new();
    let Json::Obj(members) = &json else {
        return vec!["the file is not a JSON object".to_owned()];
    };
    let member = |name: &str| members.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    if !matches!(member("nproc"), Some(Json::Num(n)) if *n >= 1.0) {
        faults.push("nproc is missing".to_owned());
    }
    if !matches!(member("git_revision"), Some(Json::Str(s)) if !s.is_empty()) {
        faults.push("git_revision is missing".to_owned());
    }
    check_timings("", &json, &mut faults);
    faults
}

fn assert_well_recorded(name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let faults = faults(&text);
    assert!(faults.is_empty(), "{name}:\n{}", faults.join("\n"));
}

#[test]
fn bench_propagate_records_a_spread_for_every_timing() {
    assert_well_recorded("BENCH_propagate.json");
}

#[test]
fn bench_serve_records_a_spread_for_every_timing() {
    assert_well_recorded("BENCH_serve.json");
}

#[test]
fn bench_load_records_a_spread_for_every_timing() {
    assert_well_recorded("BENCH_load.json");
}

#[test]
fn the_check_rejects_bare_figures_missing_machines_and_unordered_spreads() {
    let good = r#"{ "nproc": 2, "git_revision": "abc",
        "rows": [ { "wall_ms": { "min": 1, "median": 2, "max": 3 },
                    "phases": { "commit_ns": 5 } } ] }"#;
    assert_eq!(faults(good), Vec::<String>::new());
    let bare = good.replace("\"phases\"", "\"median_ns\": 7, \"phases\"");
    assert_eq!(faults(&bare).len(), 1, "{bare}");
    let unordered = good.replace("\"max\": 3", "\"max\": 1.5");
    assert_eq!(faults(&unordered).len(), 1, "{unordered}");
    let anonymous = good.replace("\"nproc\": 2, \"git_revision\": \"abc\",", "");
    assert_eq!(faults(&anonymous).len(), 2, "{anonymous}");
}
