//! Property tests for solve-request canonicalization.
//!
//! The content-addressed cache is only sound if the key function is
//! both *stable* (every syntactic spelling of the same solve maps to
//! one key — JSON key order, whitespace, explicit-vs-default fields)
//! and *injective over semantics* (any change to what would actually
//! execute maps to a different key). Both directions are exercised
//! here through the real request parser, exactly the path the server's
//! admission control takes, plus one golden digest pin so the key
//! format cannot drift silently.

use proptest::prelude::*;
use serve::api::parse_solve_body;
use serve::cache::ContentKey;

const DEFAULT_WORKERS: usize = 4;

/// The semantic content of a solve request, small enough to enumerate
/// mutations over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fields {
    zones: usize,
    steps: usize,
    workers: usize,
    /// 0 = static, 1 = dynamic, 2 = guided, 3 = auto.
    schedule: usize,
    chunk: usize,
    /// 0 = sequential (the default), n > 0 = `"zone_schedule": n`.
    zone_shards: usize,
    /// SLP lane width; rendered only when > 1 so the omitted-field
    /// spelling of the scalar default is exercised by construction.
    vector_width: usize,
}

impl Fields {
    fn schedule_token(self) -> &'static str {
        ["static", "dynamic", "guided", "auto"][self.schedule]
    }

    /// Whether this schedule takes a `chunk` field.
    fn chunked(self) -> bool {
        self.schedule == 1 || self.schedule == 2
    }

    /// Render as a JSON body with the given key order and whitespace
    /// filler. `order` is a permutation seed; `ws` pads around every
    /// token.
    fn render(self, order: usize, ws: &str) -> String {
        let mut pairs = vec![
            format!("\"zones\":{ws}{}", self.zones),
            format!("\"steps\":{ws}{}", self.steps),
            format!("\"workers\":{ws}{}", self.workers),
            format!("\"schedule\":{ws}\"{}\"", self.schedule_token()),
        ];
        if self.chunked() {
            pairs.push(format!("\"chunk\":{ws}{}", self.chunk));
        }
        if self.zone_shards > 0 {
            pairs.push(format!("\"zone_schedule\":{ws}{}", self.zone_shards));
        }
        if self.vector_width > 1 {
            pairs.push(format!("\"vector_width\":{ws}{}", self.vector_width));
        }
        // Rotate + optionally reverse: enough permutations to cover
        // every adjacency without a factorial generator.
        let n = pairs.len();
        pairs.rotate_left(order % n);
        if (order / n) % 2 == 1 {
            pairs.reverse();
        }
        format!("{{{ws}{}{ws}}}", pairs.join(&format!(",{ws}")))
    }
}

fn fields() -> impl Strategy<Value = Fields> {
    (
        1usize..=4,
        1usize..=6,
        1usize..=4,
        0usize..4,
        1usize..=8,
        0usize..=4,
        0usize..solver::SUPPORTED_WIDTHS.len(),
    )
        .prop_map(
            |(zones, steps, workers, schedule, chunk, zone_shards, width_at)| Fields {
                zones,
                steps,
                workers,
                schedule,
                chunk,
                zone_shards,
                vector_width: solver::SUPPORTED_WIDTHS[width_at],
            },
        )
}

fn whitespace(seed: usize) -> &'static str {
    ["", " ", "  ", "\n", "\t", " \n "][seed % 6]
}

/// Parse a body exactly as the server's admission path does and build
/// its content key.
fn key_of(body: &str) -> ContentKey {
    let req = parse_solve_body(body, DEFAULT_WORKERS)
        .unwrap_or_else(|e| panic!("body must parse: {e}\n{body}"));
    ContentKey::for_case(&req.case, req.auto, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Key order and whitespace never split the cache: every rendering
    /// of the same fields produces the identical key.
    #[test]
    fn spelling_variants_share_one_key(
        f in fields(),
        order_a in 0usize..10,
        order_b in 0usize..10,
        ws_a in 0usize..6,
        ws_b in 0usize..6,
    ) {
        let a = key_of(&f.render(order_a, whitespace(ws_a)));
        let b = key_of(&f.render(order_b, whitespace(ws_b)));
        prop_assert_eq!(&a, &b, "spelling split the cache");
        prop_assert_eq!(a.digest(), b.digest());
    }

    /// Omitting `workers` and spelling out the default are the same
    /// solve, so they must share a key.
    #[test]
    fn default_workers_and_explicit_workers_share_one_key(
        zones in 1usize..=4,
        steps in 1usize..=6,
    ) {
        let implicit = key_of(&format!("{{\"zones\": {zones}, \"steps\": {steps}}}"));
        let explicit = key_of(&format!(
            "{{\"zones\": {zones}, \"steps\": {steps}, \"workers\": {DEFAULT_WORKERS}}}"
        ));
        prop_assert_eq!(&implicit, &explicit);
    }

    /// Omitting `zone_schedule` and spelling out `"sequential"` are the
    /// same solve, so they must share a key.
    #[test]
    fn default_zone_schedule_and_explicit_sequential_share_one_key(
        zones in 1usize..=4,
        steps in 1usize..=6,
    ) {
        let implicit = key_of(&format!("{{\"zones\": {zones}, \"steps\": {steps}}}"));
        let explicit = key_of(&format!(
            "{{\"zones\": {zones}, \"steps\": {steps}, \"zone_schedule\": \"sequential\"}}"
        ));
        prop_assert_eq!(&implicit, &explicit);
    }

    /// Omitting `vector_width` and spelling out the scalar default are
    /// the same solve, so they must share a key — the fix for the
    /// cache split where `"vector_width": 1` hashed apart from the
    /// omitted spelling.
    #[test]
    fn default_width_and_explicit_scalar_width_share_one_key(
        zones in 1usize..=4,
        steps in 1usize..=6,
    ) {
        let implicit = key_of(&format!("{{\"zones\": {zones}, \"steps\": {steps}}}"));
        let explicit = key_of(&format!(
            "{{\"zones\": {zones}, \"steps\": {steps}, \"vector_width\": 1}}"
        ));
        prop_assert_eq!(&implicit, &explicit);
    }

    /// Every semantic mutation — dims, steps, workers, schedule family,
    /// chunk, zone schedule, vector width — moves the request to a
    /// distinct key.
    #[test]
    fn semantic_changes_change_the_key(f in fields(), which in 0usize..7) {
        let mut g = f;
        match which {
            0 => g.zones = g.zones % 4 + 1,
            1 => g.steps = g.steps % 6 + 1,
            2 => g.workers = g.workers % 4 + 1,
            3 => g.schedule = (g.schedule + 1) % 4,
            4 => g.zone_shards = (g.zone_shards + 1) % 5,
            5 => {
                // Step to the next supported width (cyclically): always
                // a different, valid width.
                let widths = solver::SUPPORTED_WIDTHS;
                let at = widths.iter().position(|&w| w == g.vector_width).unwrap();
                g.vector_width = widths[(at + 1) % widths.len()];
            }
            _ => {
                // Chunk only matters for chunked schedules; a chunk
                // mutation on any other base is meaningless, so discard
                // those draws.
                prop_assume!(f.chunked());
                g.chunk = g.chunk % 8 + 1;
            }
        }
        prop_assert_ne!(&f, &g);
        let key_f = key_of(&f.render(0, " "));
        let key_g = key_of(&g.render(0, " "));
        prop_assert_ne!(&key_f, &key_g);
        prop_assert_ne!(key_f.digest(), key_g.digest());
    }

    /// The `cache` directive is transport, not identity: a body asking
    /// for bypass still describes the same solve.
    #[test]
    fn bypass_directive_does_not_change_the_key(f in fields()) {
        let plain = f.render(0, " ");
        let with_directive = format!(
            "{{\"cache\": \"bypass\", {}",
            f.render(0, " ").trim_start_matches('{')
        );
        let req = parse_solve_body(&with_directive, DEFAULT_WORKERS).expect("parses");
        prop_assert!(req.bypass);
        prop_assert_eq!(
            &key_of(&plain),
            &ContentKey::for_case(&req.case, req.auto, 0)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `"solver"` field's default spelling is canonical: omitting
    /// it and writing `"solver": "f3d"` must share a key.
    #[test]
    fn omitted_solver_and_explicit_f3d_share_one_key(f in fields(), order in 0usize..10) {
        let implicit = f.render(order, " ");
        let explicit = format!(
            "{{\"solver\": \"f3d\", {}",
            f.render(order, " ").trim_start_matches('{')
        );
        prop_assert_eq!(&key_of(&implicit), &key_of(&explicit));
    }

    /// FDTD spellings canonicalize the same way: key order and
    /// whitespace never split the cache, and every semantic field
    /// lands in the key.
    #[test]
    fn fdtd_spelling_variants_share_one_key(
        size in 0usize..4,
        steps in 1usize..=6,
        workers in 1usize..=4,
        flip in 0usize..2,
        ws_a in 0usize..6,
        ws_b in 0usize..6,
    ) {
        let size = [8, 16, 24, 32][size];
        let ws = |w: &str| format!(
            "{{{w}\"solver\":{w}\"fdtd\",{w}\"size\":{w}{size},{w}\"steps\":{w}{steps},{w}\"workers\":{w}{workers}{w}}}"
        );
        let flipped = format!(
            "{{\"workers\": {workers}, \"steps\": {steps}, \"size\": {size}, \"solver\": \"fdtd\"}}"
        );
        let a = key_of(&ws(whitespace(ws_a)));
        let b = if flip == 1 { key_of(&flipped) } else { key_of(&ws(whitespace(ws_b))) };
        prop_assert_eq!(&a, &b, "fdtd spelling split the cache");
    }

    /// Cross-solver injectivity: an f3d key and an fdtd key can never
    /// collide, whatever the field values — the solver kind namespaces
    /// the canonical form.
    #[test]
    fn solver_kinds_key_injectively(f in fields(), size in 0usize..4, steps in 1usize..=6) {
        let size = [8, 16, 24, 32][size];
        let f3d = key_of(&f.render(0, " "));
        let fdtd = key_of(&format!(
            "{{\"solver\": \"fdtd\", \"size\": {size}, \"steps\": {steps}}}"
        ));
        prop_assert_ne!(&f3d, &fdtd);
        prop_assert!(f3d.canonical().starts_with("solve/f3d/"));
        prop_assert!(fdtd.canonical().starts_with("solve/fdtd/"));
    }
}

/// Golden pin: the canonical form and digest of one fixed solve per
/// solver. If this changes, every deployed cache key changes — that
/// must be a deliberate decision, not drift.
#[test]
fn golden_key_is_pinned() {
    let key = key_of(r#"{"zones": 2, "steps": 3, "workers": 2}"#);
    assert_eq!(
        key.canonical(),
        "solve/f3d/zones=2;steps=3;workers=2;schedule=static;zone_schedule=sequential;vector_width=1;auto=false;tune_gen=0"
    );
    assert_eq!(key.digest(), "79ac019b26e403d6");

    let fdtd = key_of(r#"{"solver": "fdtd", "size": 16, "steps": 3, "workers": 2}"#);
    assert_eq!(
        fdtd.canonical(),
        "solve/fdtd/size=16;steps=3;workers=2;schedule=static;vector_width=1;auto=false;tune_gen=0"
    );
    assert_eq!(fdtd.digest(), "e2f11a29fd9f9263");
}
