//! End-to-end tests of the `mcm` command-line tool via the real binary.

use std::path::PathBuf;
use std::process::Command;

fn mcm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcm"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mcm-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn gen_stats_match_roundtrip() {
    let file = tmp("roundtrip.mtx");
    let out = mcm()
        .args(["gen", "er", "--scale", "8", "--seed", "3", "--out"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = mcm().arg("stats").arg(&file).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rows:            256"), "{text}");

    // Every algorithm agrees on the cardinality.
    let mut cards = std::collections::BTreeSet::new();
    for algo in ["dist", "hk", "pf", "msbfs", "ppf", "auto"] {
        let out = mcm().args(["match"]).arg(&file).args(["--algo", algo]).output().unwrap();
        assert!(out.status.success(), "algo {algo}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        let card: usize = text
            .split("maximum matching: ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no cardinality in output: {text}"));
        cards.insert(card);
    }
    assert_eq!(cards.len(), 1, "algorithms disagree: {cards:?}");
}

#[test]
fn match_writes_pairs_file() {
    let file = tmp("pairs.mtx");
    assert!(mcm()
        .args(["gen", "mesh", "--scale", "6", "--out"])
        .arg(&file)
        .status()
        .unwrap()
        .success());
    let pairs = tmp("pairs.txt");
    assert!(mcm()
        .args(["match"])
        .arg(&file)
        .args(["--algo", "hk", "--out"])
        .arg(&pairs)
        .status()
        .unwrap()
        .success());
    let body = std::fs::read_to_string(&pairs).unwrap();
    // 1-based "row col" lines, one per matched column.
    assert!(!body.is_empty());
    for line in body.lines() {
        let mut it = line.split(' ');
        let r: usize = it.next().unwrap().parse().unwrap();
        let c: usize = it.next().unwrap().parse().unwrap();
        assert!(r >= 1 && c >= 1);
    }
}

#[test]
fn permute_then_btf() {
    let file = tmp("kkt_like.mtx");
    assert!(mcm()
        .args(["gen", "mesh", "--scale", "6", "--out"])
        .arg(&file)
        .status()
        .unwrap()
        .success());
    let permuted = tmp("kkt_perm.mtx");
    let out = mcm().arg("permute").arg(&file).arg("--out").arg(&permuted).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = mcm().arg("btf").arg(&permuted).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("diagonal blocks:"));
}

#[test]
fn dm_reports_blocks() {
    let file = tmp("dm.mtx");
    assert!(mcm()
        .args(["gen", "g500", "--scale", "7", "--out"])
        .arg(&file)
        .status()
        .unwrap()
        .success());
    let out = mcm().arg("dm").arg(&file).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Horizontal"));
    assert!(text.contains("Vertical"));
}

#[test]
fn dm_and_btf_read_mcsb_like_matrix_market() {
    // `dm` and `btf` open MCSB through the same mapped view as `match`;
    // their reports must not depend on the input format.
    let rmat = tmp("dm_format.mtx");
    assert!(mcm()
        .args(["gen", "g500", "--scale", "7", "--out"])
        .arg(&rmat)
        .status()
        .unwrap()
        .success());
    // Diagonal plus two 2-cycles and upper couplings: four diagonal blocks.
    let blocks = tmp("btf_format.mtx");
    std::fs::write(
        &blocks,
        "%%MatrixMarket matrix coordinate pattern general\n6 6 11\n\
         1 1\n2 2\n3 3\n4 4\n5 5\n6 6\n2 3\n3 2\n4 5\n5 4\n1 6\n",
    )
    .unwrap();
    for (command, mtx) in [("dm", &rmat), ("btf", &blocks)] {
        let mcsb = mtx.with_extension("mcsb");
        let out = mcm().arg("convert").arg(mtx).arg("--out").arg(&mcsb).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let run = |file: &std::path::Path| {
            let out = mcm().arg(command).arg(file).output().unwrap();
            assert!(out.status.success(), "{command}: {}", String::from_utf8_lossy(&out.stderr));
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        let text = run(mtx);
        assert_eq!(run(&mcsb), text, "{command}: MCSB and Matrix Market reports differ");
        if command == "btf" {
            assert!(text.contains("diagonal blocks: 4"), "{text}");
        }
    }
}

#[test]
fn stats_reads_mcsb_like_matrix_market() {
    // `stats` opens MCSB through the mapped view, with no copy into an
    // edge list; its report must not depend on the input format. The
    // hand-written file repeats an entry and leaves a row and two columns
    // empty.
    let rmat = tmp("stats_format.mtx");
    assert!(mcm()
        .args(["gen", "g500", "--scale", "7", "--out"])
        .arg(&rmat)
        .status()
        .unwrap()
        .success());
    let small = tmp("stats_small.mtx");
    std::fs::write(
        &small,
        "%%MatrixMarket matrix coordinate pattern general\n4 5 6\n\
         1 1\n1 1\n2 3\n4 3\n4 5\n2 1\n",
    )
    .unwrap();
    for mtx in [&rmat, &small] {
        let mcsb = mtx.with_extension("mcsb");
        let out = mcm().arg("convert").arg(mtx).arg("--out").arg(&mcsb).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let run = |file: &std::path::Path| {
            let out = mcm().arg("stats").arg(file).output().unwrap();
            assert!(out.status.success(), "stats: {}", String::from_utf8_lossy(&out.stderr));
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        let text = run(mtx);
        assert_eq!(run(&mcsb), text, "{}: MCSB and Matrix Market stats differ", mtx.display());
        if mtx == &small {
            for line in ["nonzeros:        5", "empty rows:      1", "empty cols:      2"] {
                assert!(text.contains(line), "{line:?} missing from:\n{text}");
            }
        }
    }
}

#[test]
fn helpful_errors() {
    let out = mcm().arg("match").arg("/nonexistent/file.mtx").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    // `mwm` was folded into `match --weighted`.
    for command in ["frobnicate", "mwm"] {
        let out = mcm().arg(command).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {err}");
        assert!(err.contains("unknown command"), "{command}: {err}");
        assert!(!err.contains("panicked"), "{command}: {err}");
    }

    let out = mcm().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
}

#[test]
fn hostile_matrix_market_headers_fail_cleanly() {
    // A declared nnz of ~1e17 or a row count past u32 used to abort or
    // panic both loaders; they must exit with an ordinary error instead.
    let huge_nnz = tmp("huge_nnz.mtx");
    std::fs::write(
        &huge_nnz,
        "%%MatrixMarket matrix coordinate pattern general\n2 2 99999999999999999\n1 1\n",
    )
    .unwrap();
    let huge_dim = tmp("huge_dim.mtx");
    std::fs::write(
        &huge_dim,
        "%%MatrixMarket matrix coordinate pattern general\n4294967296 2 1\n1 1\n",
    )
    .unwrap();
    for file in [&huge_nnz, &huge_dim] {
        let runs = [
            mcm().arg("match").arg(file).output().unwrap(),
            mcmd().arg("--load").arg(file).output().unwrap(),
            mcmd().args(["--weighted", "--load"]).arg(file).output().unwrap(),
        ];
        for out in runs {
            assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("Matrix Market parse error"), "{err}");
        }
    }
}

#[test]
fn non_finite_weights_fail_cleanly() {
    // An `inf` weight made `mcm match --weighted` bid forever and a `nan`
    // one gave a wrong answer. The Matrix Market parser, the converter and
    // the MCSB loader must each refuse them with an error naming the value.
    let refuses = |out: std::process::Output, value: &str| {
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "accepted a {value} weight: {err}");
        assert!(err.contains(value), "error does not name {value}: {err}");
    };
    for value in ["inf", "nan", "-inf"] {
        let mtx = tmp(&format!("weight_{value}.mtx"));
        std::fs::write(
            &mtx,
            format!("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 {value}\n2 2 1\n"),
        )
        .unwrap();
        refuses(mcm().args(["match", "--weighted"]).arg(&mtx).output().unwrap(), value);
        let mcsb = tmp(&format!("weight_{value}.mcsb"));
        refuses(mcm().arg("convert").arg(&mtx).arg("--out").arg(&mcsb).output().unwrap(), value);
        refuses(mcmd().args(["--weighted", "--load"]).arg(&mtx).output().unwrap(), value);
    }
    // A weighted MCSB file written with an infinite value.
    let mcsb = tmp("weight_inf_written.mcsb");
    let a = mcm_sparse::WCsc::from_weighted_triples(2, 2, vec![(0, 0, f64::INFINITY), (1, 1, 1.0)]);
    mcm_store::write_wcsc_file(&mcsb, &a).unwrap();
    refuses(mcmd().args(["--weighted", "--load"]).arg(&mcsb).output().unwrap(), "inf");
    refuses(mcm().args(["match", "--weighted"]).arg(&mcsb).output().unwrap(), "inf");
}

#[test]
fn gen_takes_the_format_from_a_mcsb_out_path() {
    // Without `--format`, a `.mcsb` path gets the binary store, which the
    // strict reader opens; Matrix Market text is refused for such a path,
    // and so is a family that cannot be streamed.
    let mcsb = tmp("gen_by_extension.mcsb");
    let out = mcm()
        .args(["gen", "g500", "--scale", "6", "--seed", "7", "--out"])
        .arg(&mcsb)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let f = mcm_store::McsbFile::open(&mcsb).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(f.view().ncols(), 64);
    for (args, want) in [
        (&["gen", "mesh", "--scale", "6", "--out"][..], "streams RMAT families only"),
        (&["gen", "er", "--scale", "6", "--format", "mtx", "--out"][..], "--format mtx"),
    ] {
        let out = mcm().args(args).arg(tmp("gen_refused.mcsb")).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
    }
}

/// FNV-1a digests of `mcm gen <family> --scale 12 --seed <seed>` file
/// bytes, as Matrix Market text and as MCSB, recorded before the sampler's
/// descent went branch-free: any change to the edge stream, the text
/// writer or the MCSB writer's bytes fails here by name.
const PINNED_GEN: [(&str, u64, u64, u64); 6] = [
    ("g500", 7, 0x202b_935a_4ebd_73a2, 0x489e_4b39_fb21_4dfe),
    ("g500", 23, 0x0859_f610_40be_b53e, 0x8f01_2f51_59b9_9e17),
    ("ssca", 7, 0xb0d0_b803_193c_e316, 0x6b0e_d12a_24a7_ea50),
    ("ssca", 23, 0xb635_2cdd_2331_2d82, 0xd21c_fdea_02be_a107),
    ("er", 7, 0x3fd0_4a65_55ba_9e17, 0xeff9_47b2_bbf4_15e0),
    ("er", 23, 0xf80c_60c5_9bac_ea94, 0x9f20_cd39_70c4_7f4d),
];

/// Runs `mcm gen` for each pinned case in `format` and checks the digest
/// of the bytes it wrote.
fn check_pinned_gen(format: &str) {
    use mcm_store::format::{fnv1a, FNV_OFFSET};
    for (family, seed, mtx, mcsb) in PINNED_GEN {
        let (ext, want) = if format == "mcsb" { ("mcsb", mcsb) } else { ("mtx", mtx) };
        let file = tmp(&format!("pinned_{family}_{seed}.{ext}"));
        let out = mcm()
            .args(["gen", family, "--scale", "12", "--seed", &seed.to_string()])
            .args(["--format", format, "--out"])
            .arg(&file)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let got = fnv1a(FNV_OFFSET, &std::fs::read(&file).unwrap());
        assert_eq!(got, want, "mcm gen {family} --scale 12 --seed {seed} --format {format}");
        std::fs::remove_file(&file).ok();
    }
}

#[test]
fn gen_matrix_market_bytes_are_pinned() {
    check_pinned_gen("mtx");
}

#[test]
fn gen_mcsb_bytes_are_pinned() {
    check_pinned_gen("mcsb");
}

#[test]
fn out_of_range_mcsb_row_index_fails_cleanly() {
    // A mapped MCSB file whose rowind holds one index >= nrows made
    // `mcm match` panic (exit 101) in the solver under every algorithm.
    // The serial engines read the mapped pages directly, so the open-time
    // range check is all that guards them.
    let mcsb = tmp("rowind_corrupt.mcsb");
    let gen = mcm()
        .args(["gen", "er", "--scale", "10", "--format", "mcsb", "--out"])
        .arg(&mcsb)
        .output()
        .unwrap();
    assert!(gen.status.success());
    let mut bytes = std::fs::read(&mcsb).unwrap();
    let h = mcm_store::Header::decode(&bytes).unwrap();
    let at = (h.rowind_off + 4 * 100) as usize;
    bytes[at..at + 4].copy_from_slice(&0x7FFF_FF00u32.to_le_bytes());
    std::fs::write(&mcsb, &bytes).unwrap();
    for args in [
        &["match", "--algo", "dist"][..],
        &["match", "--algo", "hk"],
        &["match", "--algo", "pf"],
        &["match", "--algo", "msbfs"],
        &["dm"],
        &["btf"],
    ] {
        let out = mcm().args(args).arg(&mcsb).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.contains("out of range"), "{args:?}: {err}");
    }
}

#[test]
fn unsorted_mcsb_column_fails_cleanly() {
    // Two rows of one column swapped, checksums re-sealed. Every engine
    // used to accept the file: the solvers then failed their own matching
    // check ("matched edge ... is not in the graph") and `mcmd --load`
    // counted a live edge twice on re-insert.
    use mcm_store::format::{fnv1a, FNV_OFFSET};
    let mcsb = tmp("unsorted_column.mcsb");
    let gen = mcm()
        .args(["gen", "er", "--scale", "10", "--format", "mcsb", "--out"])
        .arg(&mcsb)
        .output()
        .unwrap();
    assert!(gen.status.success());
    let mut bytes = std::fs::read(&mcsb).unwrap();
    let h = mcm_store::Header::decode(&bytes).unwrap();
    let word = |b: &[u8], at: u64, len: usize| {
        let at = at as usize;
        b[at..at + len].iter().rev().fold(0u64, |x, &y| x << 8 | u64::from(y))
    };
    let col = (0..h.ncols)
        .find(|&j| {
            word(&bytes, h.colptr_off + 8 * (j + 1), 8) - word(&bytes, h.colptr_off + 8 * j, 8) >= 2
        })
        .unwrap();
    let at = (h.rowind_off + 4 * word(&bytes, h.colptr_off + 8 * col, 8)) as usize;
    let (a, b) = (bytes[at..at + 4].to_vec(), bytes[at + 4..at + 8].to_vec());
    bytes[at..at + 4].copy_from_slice(&b);
    bytes[at + 4..at + 8].copy_from_slice(&a);
    let section = |off: u64, len: u64| off as usize..(off + len) as usize;
    let ph = fnv1a(
        fnv1a(FNV_OFFSET, &bytes[section(h.colptr_off, h.colptr_len)]),
        &bytes[section(h.rowind_off, h.rowind_len)],
    );
    bytes[88..96].copy_from_slice(&ph.to_le_bytes());
    let hc = fnv1a(FNV_OFFSET, &bytes[0..96]);
    bytes[96..104].copy_from_slice(&hc.to_le_bytes());
    std::fs::write(&mcsb, &bytes).unwrap();
    let want = format!("column {col} is not sorted");
    let algos = ["dist", "hk", "pf", "msbfs", "ppf", "auto"];
    let runs = algos.iter().map(|&a| (mcm(), vec!["match", "--algo", a]));
    let runs = runs.chain([(mcm(), vec!["dm"]), (mcm(), vec!["btf"])]);
    for (mut cmd, args) in runs.chain([(mcmd(), vec!["--quiet", "--load"])]) {
        let out = cmd.args(&args).arg(&mcsb).stdin(std::process::Stdio::null()).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.contains(&want), "{args:?}: {err}");
    }
}

fn mcmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcmd"))
}

/// Drives `mcmd` over stdin and returns its stdout.
fn mcmd_session(args: &[&str], script: &str) -> String {
    use std::io::Write;
    let mut child = mcmd()
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(script.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn mcmd_streams_updates_and_answers_queries() {
    let text = mcmd_session(
        &["--rows", "8", "--cols", "8", "--quiet", "--full-verify"],
        "insert 0 0\ninsert 1 1\nquery\n\
         # deleting the matched edge must shrink the matching\n\
         delete 0 0\nquery\n\
         {\"op\": \"insert\", \"u\": 0, \"v\": 1}\n{\"v\": 0, \"u\": 1, \"op\": \"insert\"}\nquery\n\
         stats\nquit\n",
    );
    let cards: Vec<&str> = text.lines().filter(|l| l.starts_with("matching ")).collect();
    assert_eq!(cards, ["matching 2", "matching 1", "matching 2"], "{text}");
    let stats = text.lines().find(|l| l.starts_with("stats ")).unwrap_or_else(|| panic!("{text}"));
    assert!(stats.contains("matched_deletes 1"), "{stats}");
    assert!(stats.contains("batches 3"), "{stats}");
}

#[test]
fn mcmd_snapshot_roundtrips_through_mcm() {
    let snap = tmp("mcmd_snap.mtx");
    let script = format!("insert 0 0\ninsert 0 1\ninsert 1 0\nsnapshot {}\nquit\n", snap.display());
    let text = mcmd_session(&["--rows", "4", "--cols", "4", "--quiet"], &script);
    assert!(text.contains("snapshot"), "{text}");
    // The snapshot is a valid Matrix Market file the static CLI can read,
    // and the dynamic and static answers agree.
    let out = mcm().args(["match"]).arg(&snap).args(["--algo", "hk"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("maximum matching: 2"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn mcmd_weighted_streams_reweights_and_snapshots() {
    // Weighted stdin round-trip: plain and JSONL weighted inserts, a
    // reweight that reroutes the optimum, a matched-edge delete, the
    // weighted stats shape, and a weighted snapshot the static
    // `mcm match --weighted` CLI re-reads to the same weight.
    let snap = tmp("mcmd_wsnap.mtx");
    let script = format!(
        "insert 0 0 10\ninsert 0 1 1\ninsert 1 1 10\nquery\n\
         {{\"op\": \"insert\", \"u\": 2, \"v\": 2, \"w\": 7}}\nquery\n\
         # reweighting the matched diagonal down reroutes the optimum\n\
         insert 0 0 2\nquery\n\
         delete 1 1\nquery\n\
         metrics\nstats\nsnapshot {}\nquit\n",
        snap.display()
    );
    let text = mcmd_session(
        &["--weighted", "--rows", "8", "--cols", "8", "--quiet", "--full-verify"],
        &script,
    );
    let answers: Vec<&str> = text.lines().filter(|l| l.starts_with("matching ")).collect();
    assert_eq!(
        answers,
        [
            "matching 2 weight 20",
            "matching 3 weight 27",
            "matching 3 weight 19",
            "matching 2 weight 9"
        ],
        "{text}"
    );
    let stats = text.lines().find(|l| l.starts_with("stats ")).unwrap_or_else(|| panic!("{text}"));
    assert!(stats.ends_with("algo wauction"), "{stats}");
    assert!(stats.contains(" cold 0 budget_exhausted 0 "), "small batches repair: {stats}");
    assert!(text.contains("\nmcm_wdyn_budget_exhausted_total 0\n"), "{text}");
    assert!(stats.contains(" weight 9 "), "{stats}");
    assert!(stats.contains("matched_deletes 1"), "{stats}");

    let out = mcm().args(["match", "--weighted"]).arg(&snap).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total weight 9.000000"), "{text}");
    assert!(text.contains("algo: wauction"), "{text}");
}

#[test]
fn mcmd_without_weighted_rejects_weighted_inserts() {
    // A cardinality daemon must refuse to silently drop weights; the
    // weight-1.0 spelling is cardinality semantics and stays accepted.
    let text = mcmd_session(
        &["--rows", "4", "--cols", "4", "--quiet"],
        "insert 0 0 5\ninsert 1 1 1\nquery\nquit\n",
    );
    assert!(text.contains("error line 1: weighted insert needs a --weighted daemon"), "{text}");
    assert!(text.contains("matching 1"), "{text}");
}

#[test]
fn mcmd_reports_errors_without_dying() {
    let text = mcmd_session(
        &["--rows", "4", "--cols", "4", "--quiet"],
        "insert 0 0\nfrobnicate\ninsert 99 0\nquery\nquit\n",
    );
    assert!(text.contains("error line 2"), "{text}");
    assert!(text.contains("error line 3"), "{text}");
    assert!(text.contains("matching 1"), "{text}");
}

#[test]
fn match_backend_shared_is_the_simulator_on_the_ranks_grid() {
    // `--backend shared --ranks p` spells `--backend sim --grid √p`: the
    // same matching and the same modeled time.
    let file = tmp("shared_alias.mtx");
    assert!(mcm()
        .args(["gen", "g500", "--scale", "9", "--seed", "5", "--out"])
        .arg(&file)
        .status()
        .unwrap()
        .success());
    let run = |args: &[&str]| {
        let out = mcm().arg("match").arg(&file).args(args).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        let modeled = err.lines().find(|l| l.contains("modeled time")).map(str::to_owned);
        (String::from_utf8_lossy(&out.stdout).into_owned(), modeled.unwrap_or(err))
    };
    for (ranks, grid) in [("1", "1"), ("4", "2"), ("9", "3")] {
        let shared = run(&["--backend", "shared", "--ranks", ranks, "--threads", "2"]);
        let sim = run(&["--backend", "sim", "--grid", grid, "--threads", "2"]);
        assert_eq!(shared, sim, "--ranks {ranks} vs --grid {grid}");
    }
}

#[test]
fn shared_backend_output_and_modeled_time_are_pinned_across_ranks() {
    // g500 s14 seed 7 as MCSB through the simulator at 4, 16 and 64
    // logical ranks: the modeled-time line and the FNV-1a digest of the
    // `--out` file were recorded before the single-gather assembly and the
    // per-row fused accounting, and must not move.
    use mcm_store::format::{fnv1a, FNV_OFFSET};
    let file = tmp("pinned_g500_s14.mcsb");
    let out = mcm()
        .args(["gen", "g500", "--scale", "14", "--seed", "7", "--format", "mcsb", "--out"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("MCSB"));
    for (ranks, modeled) in [
        ("4", "simulated 4 cores (2x2 grid, 1 threads/process); modeled time 8.536 ms"),
        ("16", "simulated 16 cores (4x4 grid, 1 threads/process); modeled time 5.797 ms"),
        ("64", "simulated 64 cores (8x8 grid, 1 threads/process); modeled time 6.485 ms"),
    ] {
        let pairs = tmp(&format!("pinned_g500_s14_r{ranks}.txt"));
        let out = mcm()
            .arg("match")
            .arg(&file)
            .args(["--algo", "dist", "--backend", "shared", "--ranks", ranks, "--threads", "1"])
            .arg("--out")
            .arg(&pairs)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.lines().any(|l| l == modeled), "--ranks {ranks}: {err}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("maximum matching: 9045 of 16384 columns"), "{text}");
        let bytes = std::fs::read(&pairs).unwrap();
        assert_eq!(bytes.len(), 93_694, "--ranks {ranks}");
        assert_eq!(fnv1a(FNV_OFFSET, &bytes), 0x5057_021f_4d25_8a41, "--ranks {ranks}");
    }
}

#[test]
fn mcmd_rejects_bad_backend_flags() {
    for args in [&["--threads", "0"][..], &["--weighted", "--threads", "0"][..]] {
        let out = mcmd().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(String::from_utf8_lossy(&out.stderr).contains("error"), "{args:?}");
    }
    // A zero-capacity queue would answer `busy` to every update and
    // barrier forever: refused in both modes, before any daemon starts.
    for args in [&["--queue-cap", "0"][..], &["--listen", "127.0.0.1:0", "--queue-cap", "0"][..]] {
        let out = mcmd().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--queue-cap must be at least 1"), "{args:?}: {err}");
    }
}

#[test]
fn weighted_loaders_reject_an_unweighted_mcsb() {
    let file = tmp("unweighted.mcsb");
    assert!(mcm()
        .args(["gen", "er", "--scale", "5", "--seed", "1", "--out"])
        .arg(&file)
        .status()
        .unwrap()
        .success());
    let runs = [
        mcm().args(["match", "--weighted"]).arg(&file).output().unwrap(),
        mcmd().args(["--weighted", "--load"]).arg(&file).output().unwrap(),
    ];
    for out in runs {
        assert_eq!(out.status.code(), Some(1));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("MCSB file has no values") && !err.contains("panicked"), "{err}");
    }
}

#[test]
fn simulator_rejects_grids_beyond_its_rank_limit() {
    // The fused kernel's fold-segment ids are u16, so the simulator takes
    // at most 65536 logical ranks: a larger grid is a clean error, on the
    // `--grid` and `--ranks` spellings of `mcm match`.
    let file = tmp("rank_limit.mtx");
    assert!(mcm()
        .args(["gen", "er", "--scale", "5", "--seed", "1", "--out"])
        .arg(&file)
        .status()
        .unwrap()
        .success());
    for args in [&["--grid", "257"][..], &["--backend", "shared", "--ranks", "66049"][..]] {
        let out = mcm().arg("match").arg(&file).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("at most 65536 ranks") && !err.contains("panicked"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn match_breakdown_prints_measured_vs_modeled() {
    let file = tmp("breakdown.mtx");
    assert!(mcm()
        .args(["gen", "g500", "--scale", "7", "--out"])
        .arg(&file)
        .status()
        .unwrap()
        .success());
    let trace = tmp("breakdown_trace.json");
    let out = mcm()
        .args(["match"])
        .arg(&file)
        .args(["--backend", "engine", "--ranks", "4", "--threads", "2", "--breakdown"])
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    // The side-by-side table: header plus measured seconds for the
    // kernels every run exercises.
    assert!(err.contains("measured_s"), "{err}");
    assert!(err.contains("modeled_s"), "{err}");
    assert!(err.contains("SpMV"), "{err}");
    assert!(err.contains("total"), "{err}");
    // And a loadable Chrome trace next to it.
    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
}

#[test]
fn value_less_flags_before_the_path_do_not_swallow_it() {
    // `--breakdown` and `--weighted` take no value, so the path after them
    // is the input file, not their argument.
    let file = tmp("switch_first.mtx");
    assert!(mcm()
        .args(["gen", "g500", "--scale", "6", "--out"])
        .arg(&file)
        .status()
        .unwrap()
        .success());
    let out = mcm().args(["match", "--breakdown"]).arg(&file).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("measured_s"));
    let out =
        mcm().args(["match", "--weighted"]).arg(&file).args(["--threads", "1"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("algo: wauction"));
}

#[test]
fn match_weighted_rejects_cardinality_only_flags() {
    // The weighted path has one engine; a flag that picks or instruments a
    // cardinality engine is an error naming it, not silently ignored.
    let file = tmp("weighted_flags.mtx");
    std::fs::write(
        &file,
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 4\n2 1 1\n2 2 2\n",
    )
    .unwrap();
    for args in [
        &["--algo", "dist"][..],
        &["--backend", "engine"][..],
        &["--grid", "2"][..],
        &["--ranks", "3"][..],
        &["--breakdown"][..],
        &["--trace-out", "t.json"][..],
    ] {
        let out = mcm().args(["match", "--weighted"]).arg(&file).args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(&format!("{} does not apply to --weighted", args[0])), "{err}");
    }
    // The benchmark's weighted re-solve shape stays valid.
    let out =
        mcm().args(["match"]).arg(&file).args(["--weighted", "--threads", "1"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("total weight 6.000000"));
}

#[test]
fn match_breakdown_requires_dist() {
    let file = tmp("breakdown_hk.mtx");
    assert!(mcm()
        .args(["gen", "er", "--scale", "6", "--out"])
        .arg(&file)
        .status()
        .unwrap()
        .success());
    let out =
        mcm().args(["match"]).arg(&file).args(["--algo", "hk", "--breakdown"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--algo dist"));
}

#[test]
fn match_algo_line_reports_which_engine_ran() {
    let file = tmp("algo_line.mtx");
    assert!(mcm()
        .args(["gen", "er", "--scale", "7", "--seed", "5", "--out"])
        .arg(&file)
        .status()
        .unwrap()
        .success());
    for (algo, want) in [("dist", "algo: msbfs"), ("ppf", "algo: ppf")] {
        let out = mcm().args(["match"]).arg(&file).args(["--algo", algo]).output().unwrap();
        assert!(out.status.success(), "algo {algo}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(want), "algo {algo}: {text}");
        assert!(!text.contains("selected by auto"), "algo {algo} is explicit: {text}");
    }
    // `auto` must name the concrete engine it picked and say the selector
    // chose it.
    let out = mcm().args(["match"]).arg(&file).args(["--algo", "auto"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find(|l| l.starts_with("algo: "))
        .unwrap_or_else(|| panic!("no algo line: {text}"));
    assert!(line.contains("(selected by auto)"), "{line}");
    assert!(
        ["msbfs", "ppf"].iter().any(|name| line.contains(name)),
        "auto must resolve to a concrete engine: {line}"
    );
}

#[test]
fn match_rejects_unknown_algo_names() {
    let file = tmp("bad_algo.mtx");
    assert!(mcm()
        .args(["gen", "er", "--scale", "6", "--out"])
        .arg(&file)
        .status()
        .unwrap()
        .success());
    // `auction`, `pr` and `graft` named deleted engines (the cardinality
    // auction, push-relabel and MS-BFS-Graft).
    for algo in ["frobnicate", "auction", "pr", "graft"] {
        let out = mcm().args(["match"]).arg(&file).args(["--algo", algo]).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{algo}: {err}");
        assert!(err.contains("unknown algorithm"), "{algo}: {err}");
        assert!(!err.contains("panicked"), "{algo}: {err}");
    }
}

#[test]
fn match_rejects_non_square_ranks_for_every_algo() {
    // A 200-cycle: every degree is 2, so `auto` picks MS-BFS and lands on
    // the rank-grid backend. A bad rank count must be a clean error for
    // every engine, never a panic inside the backend.
    let file = tmp("cycle200.mtx");
    let n = 200;
    let mut text = format!("%%MatrixMarket matrix coordinate pattern general\n{n} {n} {}\n", 2 * n);
    for j in 1..=n {
        text.push_str(&format!("{j} {j}\n{} {j}\n", j % n + 1));
    }
    std::fs::write(&file, text).unwrap();
    for args in [
        &["--algo", "auto", "--backend", "shared", "--ranks", "3"][..],
        &["--algo", "auto", "--backend", "engine", "--ranks", "3"][..],
        &["--algo", "auto", "--backend", "shared", "--ranks", "0"][..],
        &["--algo", "dist", "--backend", "engine", "--ranks", "2"][..],
    ] {
        let out = mcm().args(["match"]).arg(&file).args(args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--ranks must be a positive perfect square"), "{args:?}: {err}");
    }
}

#[test]
fn mcmd_metrics_command_serves_prometheus_text() {
    let text = mcmd_session(
        &["--rows", "8", "--cols", "8", "--quiet"],
        "insert 0 0\ninsert 1 1\nquery\nmetrics\nquit\n",
    );
    // Strategy counters (satellite: per-batch fallback decisions), batch
    // latency histogram, per-request latencies, and the EOF terminator.
    assert!(text.contains("# TYPE mcm_dyn_batches_total counter"), "{text}");
    assert!(text.contains("mcm_dyn_batches_total{strategy=\"incremental\"} 1"), "{text}");
    assert!(text.contains("mcm_dyn_batch_seconds_count{strategy=\"incremental\"} 1"), "{text}");
    assert!(text.contains("mcmd_batch_apply_seconds_count 1"), "{text}");
    assert!(text.contains("mcmd_request_seconds_count{verb=\"insert\"} 2"), "{text}");
    assert!(text.contains("mcmd_request_seconds_count{verb=\"query\"} 1"), "{text}");
    assert!(text.lines().any(|l| l == "# EOF"), "{text}");
}

#[test]
fn mcmd_metrics_labels_warm_start_fallbacks() {
    let text = mcmd_session(
        &["--rows", "6", "--cols", "6", "--fallback", "0", "--quiet"],
        "insert 0 0\ninsert 0 1\ninsert 1 0\nquery\nmetrics\nquit\n",
    );
    assert!(text.contains("mcm_dyn_batches_total{strategy=\"warm_start\"} 1"), "{text}");
    let stats = mcmd_session(
        &["--rows", "6", "--cols", "6", "--fallback", "0", "--quiet"],
        "insert 0 0\ninsert 0 1\ninsert 1 0\nstats\nquit\n",
    );
    let line = stats.lines().find(|l| l.starts_with("stats ")).unwrap_or_else(|| panic!("{stats}"));
    assert!(line.contains("incremental 0"), "{line}");
    assert!(line.contains("warm_start 1"), "{line}");
}

#[test]
fn mcmd_reports_scanned_adjacency_entries() {
    // Deleting matched (0, 0) frees r0 and c0: c0 has no edges left, and
    // the search from r0 scans r0 → c1 and c1's mate r1 → c1, 2 entries.
    let text = mcmd_session(
        &["--rows", "4", "--cols", "4", "--quiet"],
        "insert 0 0\ninsert 1 1\ninsert 0 1\nquery\ndelete 0 0\nquery\nstats\nmetrics\nquit\n",
    );
    let line = text.lines().find(|l| l.starts_with("stats ")).unwrap_or_else(|| panic!("{text}"));
    assert!(line.ends_with(" warm_start 0 scanned 2 algo msbfs-serial"), "{line}");
    assert!(text.contains("mcm_dyn_scanned_total{strategy=\"incremental\"} 2"), "{text}");
}

#[test]
fn mcmd_trace_out_writes_chrome_json() {
    use std::io::Write;
    let trace = tmp("mcmd_trace.json");
    let mut child = mcmd()
        .args(["--rows", "8", "--cols", "8", "--quiet", "--trace-out"])
        .arg(&trace)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(b"insert 0 0\ninsert 1 1\nquery\nquit\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"name\":\"apply_batch\""), "{json}");
}

#[test]
fn mcmd_socket_trace_shows_publish_and_snapshot_spans() {
    let (trace, snap) = (tmp("mcmd_socket_trace.json"), tmp("mcmd_socket_trace_snap.mtx"));
    let script =
        ["insert 0 0".to_string(), "sync".to_string(), format!("snapshot {}", snap.display())];
    let out = mcmd_socket_session(
        &["--rows", "8", "--cols", "8", "--trace-out", trace.to_str().unwrap()],
        &script,
    );
    assert_eq!(out[..2], ["ok", "synced seq 1 cardinality 1"], "{out:?}");
    assert_eq!(out[2], format!("snapshot {} nnz 1", snap.display()));
    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(json.contains("\"name\":\"mcmd_publish\""), "{json}");
    assert!(json.contains("\"name\":\"mcmd_snapshot\""), "{json}");
}

#[test]
fn mcmd_loads_a_matrix_and_repairs_on_top() {
    let file = tmp("mcmd_load.mtx");
    assert!(mcm()
        .args(["gen", "mesh", "--scale", "6", "--out"])
        .arg(&file)
        .status()
        .unwrap()
        .success());
    let text = mcmd_session(&["--load", file.to_str().unwrap(), "--quiet"], "query\nquit\n");
    let loaded =
        text.lines().find(|l| l.starts_with("loaded ")).unwrap_or_else(|| panic!("{text}"));
    // "loaded <path> <n1>x<n2> nnz <z> matching <card>"
    let card: usize = loaded.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(card > 0, "{loaded}");
    assert!(text.contains(&format!("matching {card}")), "{text}");
}

/// Responses of one `mcmd --listen` session over `script`, one per line
/// (`metrics` is not sent: its latency histograms differ run to run).
fn mcmd_socket_session(args: &[&str], script: &[String]) -> Vec<String> {
    use std::io::{BufRead, BufReader, Write};
    let mut child = mcmd()
        .args(args)
        .args(["--listen", "127.0.0.1:0", "--max-batch", "100000", "--max-delay-ms", "60000"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line.trim().strip_prefix("listening ").unwrap_or_else(|| panic!("{line}"));
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    let mut responses = BufReader::new(conn.try_clone().unwrap());
    let mut out = Vec::new();
    for cmd in script.iter().map(String::as_str).chain(["shutdown"]) {
        conn.write_all(format!("{cmd}\n").as_bytes()).unwrap();
        let mut resp = String::new();
        responses.read_line(&mut resp).unwrap();
        out.push(resp.trim_end().to_string());
    }
    assert!(child.wait().unwrap().success());
    out
}

#[test]
fn mcmd_stdin_and_socket_modes_agree() {
    // One script through `--input` and through `--listen`, for both
    // engines. Scalar reads follow a barrier (`sync` or `snapshot`), so
    // both modes answer from the same applied state: every response must
    // match, and so must the snapshot files, including one no `sync`
    // precedes. Only the socket's `ok`/`bye` and the stdin `line N:` error
    // prefix may differ.
    for weighted in [false, true] {
        let kind = if weighted { "weighted" } else { "card" };
        let mut x = 0x5EEDu64;
        let mut next = |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let mut script = vec!["insert 99 0".to_string()]; // refused: out of range
        for window in 0..5 {
            for _ in 0..60 {
                let (r, c) = (next(8), next(8));
                script.push(match next(3) {
                    0 => format!("delete {r} {c}"),
                    // Weighted: re-inserting a live edge re-weights it.
                    _ if weighted => format!("insert {r} {c} {}", 1 + next(20)),
                    _ => format!("insert {r} {c}"),
                });
            }
            if window < 4 {
                script.extend(["sync", "query", "state", "stats"].map(String::from));
            }
            if window == 3 {
                script.push("snapshot SNAP_synced.mtx".to_string());
            }
        }
        // The last window is closed by the snapshot barrier alone.
        script.extend(["snapshot SNAP_unsynced.mtx", "state", "sync"].map(String::from));
        let engine: &[&str] = if weighted {
            &["--weighted", "--rows", "8", "--cols", "8"]
        } else {
            &["--rows", "8", "--cols", "8"]
        };

        let stdin_snap = tmp(&format!("agree_{kind}_stdin"));
        let input = tmp(&format!("agree_{kind}.txt"));
        let text: String =
            script.iter().map(|l| l.replace("SNAP", stdin_snap.to_str().unwrap()) + "\n").collect();
        std::fs::write(&input, text + "quit\n").unwrap();
        let out = mcmd().args(engine).args(["--quiet", "--input"]).arg(&input).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdin_lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|l| match l.strip_prefix("error line ") {
                Some(rest) => format!("error {}", rest.split_once(": ").unwrap().1),
                None => l.to_string(),
            })
            .collect();

        let socket_snap = tmp(&format!("agree_{kind}_socket"));
        let socket_script: Vec<String> =
            script.iter().map(|l| l.replace("SNAP", socket_snap.to_str().unwrap())).collect();
        let socket_lines: Vec<String> = mcmd_socket_session(engine, &socket_script)
            .into_iter()
            .filter(|l| l != "ok" && l != "bye")
            .map(|l| l.replace(socket_snap.to_str().unwrap(), stdin_snap.to_str().unwrap()))
            .collect();

        assert_eq!(stdin_lines, socket_lines, "{kind}: the modes answered differently");
        assert!(stdin_lines[0].starts_with("error vertex out of range"), "{stdin_lines:?}");
        assert_eq!(stdin_lines.iter().filter(|l| l.starts_with("synced seq")).count(), 5);
        assert!(stdin_lines.iter().any(|l| l.starts_with("state seq 5 ")), "{stdin_lines:?}");
        for which in ["synced", "unsynced"] {
            let file =
                |base: &PathBuf| std::fs::read(format!("{}_{which}.mtx", base.display())).unwrap();
            assert_eq!(file(&stdin_snap), file(&socket_snap), "{kind}: {which} snapshots differ");
        }
    }
}

#[test]
fn mcmd_stats_count_dirty_vertices_in_both_modes() {
    // The cardinality stats line carries the running dirty-set total the
    // weighted line already prints. Two fresh both-free inserts match at
    // once (no dirty vertex); deleting a matched edge then frees both its
    // endpoints, and the stdin session and the socket must print the same
    // nonzero total.
    let script: Vec<String> =
        ["insert 0 0", "insert 1 1", "sync", "stats", "delete 0 0", "sync", "stats"]
            .map(String::from)
            .to_vec();
    let engine = ["--rows", "4", "--cols", "4"];
    let input = tmp("dirty_stats.txt");
    std::fs::write(&input, script.iter().map(|l| format!("{l}\n")).collect::<String>() + "quit\n")
        .unwrap();
    let out = mcmd().args(engine).args(["--quiet", "--input"]).arg(&input).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdin_text = String::from_utf8_lossy(&out.stdout).into_owned();
    let socket_lines = mcmd_socket_session(&engine, &script);
    let dirty = |lines: Vec<&str>| -> Vec<usize> {
        let stats = lines.into_iter().filter(|l| l.starts_with("stats "));
        stats
            .map(|l| {
                let token = l.split(" dirty ").nth(1).and_then(|t| t.split(' ').next());
                token.and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("no dirty: {l}"))
            })
            .collect()
    };
    let from_stdin = dirty(stdin_text.lines().collect());
    let from_socket = dirty(socket_lines.iter().map(String::as_str).collect());
    assert_eq!(from_stdin, [0, 2], "{stdin_text}");
    assert_eq!(from_socket, from_stdin, "{socket_lines:?}");
}

#[test]
fn mcmd_forced_fallback_agrees_across_stdin_and_socket() {
    // `--fallback 0` sends every dirtying batch to warm serial MS-BFS, and
    // `--full-verify` certifies each one. The same windows of updates
    // through `--input` and through `--listen` must answer identically,
    // and the stats line must show fallbacks that ran and name their engine.
    let mut x = 0xFA11u64;
    let mut next = |n: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % n
    };
    let mut script = Vec::new();
    for _ in 0..6 {
        for _ in 0..25 {
            let (r, c) = (next(10), next(10));
            script.push(if next(3) == 0 {
                format!("delete {r} {c}")
            } else {
                format!("insert {r} {c}")
            });
        }
        script.extend(["sync", "query", "state", "stats"].map(String::from));
    }
    let engine = ["--rows", "10", "--cols", "10", "--fallback", "0", "--full-verify"];
    let input = tmp("forced_fallback.txt");
    std::fs::write(&input, script.iter().map(|l| format!("{l}\n")).collect::<String>() + "quit\n")
        .unwrap();
    let out = mcmd().args(engine).args(["--quiet", "--input"]).arg(&input).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdin_lines: Vec<String> =
        String::from_utf8_lossy(&out.stdout).lines().map(str::to_owned).collect();
    let socket_lines: Vec<String> = mcmd_socket_session(&engine, &script)
        .into_iter()
        .filter(|l| l != "ok" && l != "bye")
        .collect();
    assert_eq!(stdin_lines, socket_lines, "the modes answered differently");
    let stats = stdin_lines.iter().rfind(|l| l.starts_with("stats ")).unwrap();
    let fallbacks: usize = stats
        .split(" fallbacks ")
        .nth(1)
        .and_then(|t| t.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no fallbacks token: {stats}"));
    assert!(fallbacks > 0, "no batch fell back: {stats}");
    assert!(stats.ends_with(" algo msbfs-serial"), "{stats}");
}

#[test]
fn mcm_rejects_unknown_flags_per_subcommand() {
    // A flag the subcommand does not take exits 1 naming it, also when
    // another subcommand takes it; the flags each one takes still work.
    let file = tmp("unknown_flags.mtx");
    let out = mcm()
        .args(["gen", "g500", "--scale", "6", "--seed", "3", "--format", "mtx", "--out"])
        .arg(&file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let f = file.to_str().unwrap();
    let pairs = tmp("unknown_flags_pairs.txt");
    let pairs = pairs.to_str().unwrap();
    for (cmd, bad) in [
        ("stats", "--frob"),
        ("match", "--frob"),
        ("match", "--scale"),
        ("permute", "--algo"),
        ("dm", "--out"),
        ("btf", "--threads"),
        ("gen", "--algo"),
        ("convert", "--seed"),
    ] {
        let out = mcm().args([cmd, f, bad, "1"]).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd} {bad}: {err}");
        assert!(err.contains(&format!("unknown flag for `mcm {cmd}`: {bad}")), "{err}");
    }
    let ok = |args: &[&str]| {
        let out = mcm().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    };
    ok(&["stats", f]);
    ok(&["dm", f]);
    ok(&["match", f, "--algo", "dist", "--backend", "sim", "--grid", "1", "--threads", "1"]);
    ok(&["match", f, "--backend", "shared", "--ranks", "4", "--breakdown", "--out", pairs]);
    ok(&["match", f, "--weighted", "--threads", "1", "--out", pairs]);
}

#[test]
fn mcmd_rejects_unknown_flags() {
    // The solver flags mcmd no longer takes and a made-up one: each exits
    // 1 naming the flag. Every flag mcmd does take still parses.
    for (args, flag) in [
        (&["--algo", "msbfs"][..], "--algo"),
        (&["--backend", "engine"][..], "--backend"),
        (&["--ranks", "4"][..], "--ranks"),
        (&["--rows", "4", "--cols", "4", "--frobnicate", "3"][..], "--frobnicate"),
    ] {
        let out = mcmd().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(&format!("unknown flag: {flag}")), "{args:?}: {err}");
    }
    let trace = tmp("mcmd_all_flags.json");
    let input = tmp("mcmd_all_flags.txt");
    std::fs::write(&input, "insert 0 0\nquery\nquit\n").unwrap();
    for weighted in [&[][..], &["--weighted"][..]] {
        let out = mcmd()
            .args(weighted)
            .args(["--rows", "4", "--cols", "4", "--fallback", "0.5", "--threads", "1"])
            .args(["--max-batch", "8", "--max-delay-ms", "1", "--queue-cap", "16"])
            .args(["--full-verify", "--quiet", "--trace-out"])
            .arg(&trace)
            .arg("--input")
            .arg(&input)
            .output()
            .unwrap();
        assert!(out.status.success(), "{weighted:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("matching 1"));
    }
}
