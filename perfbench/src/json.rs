//! A minimal JSON reader for the daemon's `stats` reply: enough to look
//! numbers up by key path, treating absent keys as absent rather than as
//! errors, so the benchmark survives changes to the reply's shape.

#[derive(Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The number at `path` (object keys, outermost first), if present.
    pub fn num(&self, path: &[&str]) -> Option<f64> {
        let mut v = self;
        for key in path {
            let Value::Obj(fields) = v else { return None };
            v = &fields.iter().find(|(k, _)| k == key)?.1;
        }
        match v {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one JSON document; `None` on malformed input.
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    (p.i == p.s.len()).then_some(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.ws();
        (self.s.get(self.i) == Some(&c)).then(|| self.i += 1)
    }

    fn value(&mut self) -> Option<Value> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat(b'}').is_some() {
                    return Some(Value::Obj(fields));
                }
                loop {
                    self.ws();
                    let Value::Str(k) = self.string()? else {
                        return None;
                    };
                    self.eat(b':')?;
                    fields.push((k, self.value()?));
                    if self.eat(b',').is_none() {
                        self.eat(b'}')?;
                        return Some(Value::Obj(fields));
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']').is_some() {
                    return Some(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b',').is_none() {
                        self.eat(b']')?;
                        return Some(Value::Arr(items));
                    }
                }
            }
            b'"' => self.string(),
            b't' => self.word("true", Value::Bool(true)),
            b'f' => self.word("false", Value::Bool(false)),
            b'n' => self.word("null", Value::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).ok()?;
                text.parse().ok().map(Value::Num)
            }
        }
    }

    fn word(&mut self, w: &str, v: Value) -> Option<Value> {
        let end = self.i + w.len();
        (self.s.get(self.i..end)? == w.as_bytes()).then(|| {
            self.i = end;
            v
        })
    }

    fn string(&mut self) -> Option<Value> {
        if self.s.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let c = *self.s.get(self.i)?;
            self.i += 1;
            match c {
                b'"' => return Some(Value::Str(out)),
                b'\\' => {
                    let e = *self.s.get(self.i)?;
                    self.i += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(self.s.get(self.i..self.i + 4)?).ok()?;
                            self.i += 4;
                            out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                        }
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Re-read multi-byte UTF-8 sequences whole.
                    let start = self.i - 1;
                    let len = match c {
                        0xF0..=0xFF => 4,
                        0xE0..=0xEF => 3,
                        0xC0..=0xDF => 2,
                        _ => 1,
                    };
                    let chunk = std::str::from_utf8(self.s.get(start..start + len)?).ok()?;
                    out.push_str(chunk);
                    self.i = start + len;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_numbers_by_path_and_tolerates_absent_keys() {
        let v = parse(r#"{"a":{"b":2.5,"s":"x\"y"},"c":[1,true,null],"d":-3e2}"#).unwrap();
        assert_eq!(v.num(&["a", "b"]), Some(2.5));
        assert_eq!(v.num(&["d"]), Some(-300.0));
        assert_eq!(v.num(&["a", "missing"]), None);
        assert_eq!(v.num(&["c", "x"]), None);
        assert!(parse("{\"a\":1} trailing").is_none());
    }
}
