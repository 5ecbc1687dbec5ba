//! Crash-class fuzzing of the two request-path parsers, `json::parse` and
//! `http::read_request`, and a round-trip property of the JSON writer.
//!
//! A stack overflow or an abort ends the whole process, which no
//! `catch_unwind`-based test can observe. The fuzz loop therefore runs in a
//! child process — this test binary re-executed on the ignored test
//! [`fuzz_loop`] — and the parent test requires a clean exit status.
//! Replay a failing run with `SSDREC_PROP_SEED=<seed>`.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::process::Command;

use ssdrec_serve::http::read_request;
use ssdrec_serve::json::{self, Json, Obj, ToJson, MAX_DEPTH};
use ssdrec_testkit::{Config, Rng};

/// Random, mutated and truncated inputs per parser.
const CASES: usize = 4_000;

const JSON_SEEDS: &[&str] = &[
    r#"{"user": 7, "seq": [3, 1, 4], "k": 10}"#,
    r#"{"a":[{"b":"x\ny"},true,null,-1.5e2]}"#,
    r#"["é\"\\\/\b\f\n\r\t", 0.1, -0, 1e308, {"":{}}]"#,
    r#"{"uptime_secs":1.5,"model":{"model_version":2},"workers":{"busy_fraction":[0.25]}}"#,
    "[[[[[[[[]]]]]]]]",
    "\"unterminated",
    "-",
];

const HTTP_SEEDS: &[&str] = &[
    "GET /recommend?user=0&seq=1,2&k=5 HTTP/1.1\r\nHost: fuzz\r\n\r\n",
    "POST /recommend HTTP/1.1\r\nContent-Length: 26\r\n\r\n{\"user\":1,\"seq\":[2],\"k\":3}",
    "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
    "POST /reload HTTP/1.1\r\ncontent-length: 0\r\n\r\n",
    "GET /recommend?user=%41%zz+x&=&&k HTTP/1.1\r\n\r\n",
];

/// Bytes that matter to the two grammars, plus a few that do not.
const ALPHABET: &[u8] = b"{}[]\":,\\/0123456789.eE+-tfnul \r\n\tabc%?&=GETPOS\x00\xff\xc3\xa9";

fn random_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let n = rng.below(max_len + 1);
    (0..n)
        .map(|_| {
            if rng.bernoulli(0.9) {
                *rng.choice(ALPHABET)
            } else {
                rng.next_u64() as u8
            }
        })
        .collect()
}

/// One to four random edits: overwrite, insert, delete, duplicate a span,
/// or truncate.
fn mutate(rng: &mut Rng, seed: &[u8]) -> Vec<u8> {
    let mut b = seed.to_vec();
    for _ in 0..rng.between(1, 5) {
        let at = rng.below(b.len() + 1);
        match rng.below(5) {
            0 if at < b.len() => b[at] = *rng.choice(ALPHABET),
            1 => b.insert(at, *rng.choice(ALPHABET)),
            2 if at < b.len() => {
                b.remove(at);
            }
            3 => {
                let end = (at + rng.below(16)).min(b.len());
                let span = b[at..end].to_vec();
                b.splice(at..at, span);
            }
            _ => b.truncate(at),
        }
    }
    b
}

/// Well-formed nesting `depth` levels deep, as arrays or as objects.
fn nested(depth: usize, objects: bool) -> String {
    if objects {
        format!("{}1{}", r#"{"k":"#.repeat(depth), "}".repeat(depth))
    } else {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }
}

fn check_json(text: &str) {
    // The property is "returns": Ok or Err, never a panic or a crash.
    let _ = json::parse(text);
}

fn check_http(bytes: &[u8]) {
    if let Ok(Some(req)) = read_request(&mut Cursor::new(bytes)) {
        // The server feeds every body to the JSON parser next.
        check_json(&String::from_utf8_lossy(&req.body));
    }
}

#[test]
fn parsers_survive_fuzzing_in_a_child_process() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([
            "fuzz_loop",
            "--exact",
            "--ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .output()
        .expect("re-execute the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "fuzz child ended with {}\n--- stdout\n{stdout}\n--- stderr\n{stderr}",
        out.status
    );
    assert!(
        stdout.contains("1 passed"),
        "fuzz child did not run the loop:\n{stdout}"
    );
}

#[test]
#[ignore = "run in a child process by parsers_survive_fuzzing_in_a_child_process"]
fn fuzz_loop() {
    let seed = Config::default().seed;
    eprintln!("fuzz seed {seed} (replay with SSDREC_PROP_SEED={seed})");
    let mut rng = Rng::seed(seed);

    for _ in 0..CASES {
        let bytes = match rng.below(3) {
            0 => random_bytes(&mut rng, 64),
            1 => {
                let s = *rng.choice(JSON_SEEDS);
                mutate(&mut rng, s.as_bytes())
            }
            _ => {
                let s = rng.choice(JSON_SEEDS).as_bytes();
                s[..rng.below(s.len() + 1)].to_vec()
            }
        };
        check_json(&String::from_utf8_lossy(&bytes));

        let bytes = match rng.below(3) {
            0 => random_bytes(&mut rng, 96),
            1 => {
                let s = *rng.choice(HTTP_SEEDS);
                mutate(&mut rng, s.as_bytes())
            }
            _ => {
                let s = rng.choice(HTTP_SEEDS).as_bytes();
                s[..rng.below(s.len() + 1)].to_vec()
            }
        };
        check_http(&bytes);
    }

    // Nesting at the cap is accepted, one past it is rejected, and far past
    // it (both balanced and unterminated) is an error, not a stack overflow.
    for objects in [false, true] {
        for depth in MAX_DEPTH - 2..=MAX_DEPTH + 2 {
            let r = json::parse(&nested(depth, objects));
            assert_eq!(r.is_ok(), depth <= MAX_DEPTH, "depth {depth}");
        }
        for depth in [1_000, 100_000, 1_000_000] {
            assert!(json::parse(&nested(depth, objects)).is_err());
            let open = if objects { r#"{"k":"# } else { "[" };
            assert!(json::parse(&open.repeat(depth)).is_err());
        }
    }
    // The same hostile body behind a valid request line.
    let body = "[".repeat(500_000);
    let req = format!(
        "POST /recommend HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    check_http(req.as_bytes());
    // Every truncation of every request seed returns.
    for s in HTTP_SEEDS {
        for end in 0..=s.len() {
            check_http(&s.as_bytes()[..end]);
        }
    }
}

/// A document for the writer round trip.
enum Doc {
    Int(u64),
    Float(f64),
    Str(String),
    Bool(bool),
    Obj(Vec<(String, Doc)>),
    Arr(Vec<Doc>),
}

impl ToJson for Doc {
    fn write_json(&self, out: &mut String) {
        match self {
            Doc::Int(n) => n.write_json(out),
            Doc::Float(x) => x.write_json(out),
            Doc::Str(s) => s.write_json(out),
            Doc::Bool(b) => b.write_json(out),
            Doc::Obj(fields) => fields
                .iter()
                .fold(Obj::new(), |o, (k, v)| o.field(k, v))
                .write_json(out),
            Doc::Arr(items) => items.write_json(out),
        }
    }
}

impl Doc {
    /// What `json::parse` must read back.
    fn expected(&self) -> Json {
        match self {
            Doc::Int(n) => Json::Num(*n as f64),
            Doc::Float(x) if x.is_finite() => Json::Num(*x),
            Doc::Float(_) => Json::Null,
            Doc::Str(s) => Json::Str(s.clone()),
            Doc::Bool(b) => Json::Bool(*b),
            Doc::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.expected()))
                    .collect::<BTreeMap<_, _>>(),
            ),
            Doc::Arr(items) => Json::Arr(items.iter().map(Doc::expected).collect()),
        }
    }
}

const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '€',
    '\u{1F600}',
];

fn random_string(rng: &mut Rng) -> String {
    (0..rng.below(8)).map(|_| *rng.choice(CHARS)).collect()
}

fn random_doc(rng: &mut Rng, depth: usize) -> Doc {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Doc::Int(match rng.below(4) {
            0 => 1 << 53,
            1 => (1 << 53) - 1,
            2 => rng.below(1000) as u64,
            _ => rng.next_u64() % ((1 << 53) + 1),
        }),
        1 => Doc::Float(match rng.below(5) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => f64::from_bits(rng.next_u64()),
        }),
        2 => Doc::Str(random_string(rng)),
        3 => Doc::Bool(rng.bernoulli(0.5)),
        // Keys are made unique with their index: the parser keeps one value
        // per key.
        4 => Doc::Obj(
            (0..rng.below(5))
                .map(|i| {
                    let key = format!("{}{i}", random_string(rng));
                    (key, random_doc(rng, depth - 1))
                })
                .collect(),
        ),
        _ => Doc::Arr(
            (0..rng.below(5))
                .map(|_| random_doc(rng, depth - 1))
                .collect(),
        ),
    }
}

#[test]
fn writer_round_trips_through_the_parser() {
    let seed = Config::default().seed;
    let mut rng = Rng::seed(seed);
    for case in 0..500 {
        let doc = Doc::Obj(vec![("root".into(), random_doc(&mut rng, 4))]);
        let mut text = String::new();
        doc.write_json(&mut text);
        let back = json::parse(&text)
            .unwrap_or_else(|e| panic!("case {case} (seed {seed}): {e} in {text}"));
        assert_eq!(back, doc.expected(), "case {case} (seed {seed}): {text}");
    }
}
