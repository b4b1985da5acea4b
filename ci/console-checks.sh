#!/usr/bin/env bash
# End-to-end checks of the installed `pfclust` console script, which no test
# calls. Both CI jobs run it; run it from the repository root as
#
#     bash -eo pipefail ci/console-checks.sh OUT_DIR
#
# where OUT_DIR is an existing scratch directory. It checks, in order:
# - that --version prints exactly "pfclust 0.1.0" (the process ends by
#   os._exit once its output is flushed, skipping the interpreter's
#   teardown), and loads neither the grid harness nor the process pool
#   modules (concurrent.futures, multiprocessing), which only the commands
#   that run them import;
# - JSON to stdout from validate, piped and byte-equal to its -o file, and
#   the binary PPM writer from heatmap;
# - an output path that is a FIFO, refused (exit 2) and left a FIFO;
# - the grid's forked worker processes, whose preset reports equal the
#   reports of the same grid run in process on one worker, and which load
#   neither concurrent.futures nor multiprocessing (the same -X importtime
#   check that --version gets: the grid forks by os.fork alone);
# - a rough run that stops on a centroid cycle (so its matrix-product
#   centroid updates repeat bit for bit), validated without --m (so at the
#   grid's m = 1 for a rough file);
# - a kmeans run with more clusters than distinct rows, whose empty-cluster
#   repair makes its centroids cycle: exit 0, the cycle warning, and
#   "stop_reason": "cycle" in meta.json;
# - a grid refused (exit 2) for its missing output directory before it runs;
# - a seeded_random grid, whose subsets are keyed by size and seed;
# - a grid asking for more workers than it has (cell, algorithm) groups (so
#   it starts at most one process per group and CPU), under a timeout so
#   that a hang in a worker fails fast, whose reports equal its one-worker
#   reports;
# - a config grid, refused (exit 1) when a field flag comes with it, and
#   dashed names in a config's overrides and in --policy;
# - a kmeans run whose squared distances overflow (exit 3, a numerical
#   failure);
# - an fcm run with 12 clusters validated from its CSV (numpy sums a
#   C-ordered row of 8 or more in another order), and an fcm k above the
#   gene count (exit 1, worded as for kmeans);
# - a kmeans (hard) partition validated and drawn, then refused (exit 2) once
#   a cluster cell reads 1.0 or 99999999999999999999;
# - the matrix reader's two paths: a 1_0 cell, which only the float() walk
#   reads (exit 0), a cell ending in U+001F, which numpy's C reader would
#   strip (exit 2), and a res file, whose values are every second column
#   (exit 0);
# - normalize's binary companion: cluster writes the same partition,
#   centroids and meta.json from the TSV with its companion and from a copy
#   of the TSV alone, and again once CRLF line ends make the companion
#   stale; a stale companion hides no fault (an appended short row, exit 2);
# - the reader and write_tsv in row parts: on a matrix of 240000 cells,
#   above the floor at which they fork, normalize and cluster write the same
#   bytes, the companion included, on one CPU (taskset -c 0, one part) and on
#   every CPU the runner has;
# - write_tsv's streamed text: on that matrix, normalize's TSV equals
#   write_tsv of the same normalized matrix into a StringIO, on one CPU and on
#   every CPU;
# - the reader's byte-range parts on that matrix: written with CRLF line
#   ends and a trailing empty line, it clusters to the bytes the LF file
#   gives; with the byte 0xff on its last data line it exits 2 with "cannot
#   read" (the whole file is decoded before any fault is named); written as
#   a gct file, it clusters to the same partition and centroids;
# - the run record: the meta.json of a kmeans, rough-kmeans, fcm and pfcm
#   run each holds iterations, stop_reason, converged, a trace list and a
#   delta list with one entry per iteration, and only pfcm's holds alpha;
#   and cluster --normalize --drop-degenerate warns of the gene it drops, as
#   normalize does;
# - cluster ... --drop-degenerate without --normalize, refused (exit 1) with
#   one error: line, writing no output.
set -eo pipefail
out=${1:?usage: ci/console-checks.sh OUT_DIR}

test "$(pfclust --version)" = "pfclust 0.1.0"
python -X importtime -m pfclust --version 2> "$out/version.importtime"
grep -q ' pfclust\.cli$' "$out/version.importtime"
if grep -E ' (pfclust\.harness|concurrent\.futures|multiprocessing)$' "$out/version.importtime"; then exit 1; fi
pfclust cluster tests/data/synthetic_100x10.tsv --alg pfcm --k 3 --out "$out/smoke"
pfclust validate tests/data/synthetic_100x10.tsv --partition "$out/smoke.partition.csv" --centroids "$out/smoke.centroids.csv" | cat > "$out/smoke.piped.json"
pfclust validate tests/data/synthetic_100x10.tsv --partition "$out/smoke.partition.csv" --centroids "$out/smoke.centroids.csv" -o "$out/smoke.validate.json"
cmp "$out/smoke.piped.json" "$out/smoke.validate.json"
mkfifo "$out/fifo.json"
rc=0; pfclust validate tests/data/synthetic_100x10.tsv --partition "$out/smoke.partition.csv" --centroids "$out/smoke.centroids.csv" -o "$out/fifo.json" || rc=$?; test "$rc" -eq 2
test -p "$out/fifo.json"
pfclust heatmap tests/data/synthetic_100x10.tsv --partition "$out/smoke.partition.csv" -o "$out/smoke.ppm"
python -X importtime -m pfclust grid tests/data/synthetic_100x10.tsv --preset --seeds 0,1 --workers 2 --out "$out/g" 2> "$out/grid.importtime"
grep -q ' pfclust\.harness$' "$out/grid.importtime"
if grep -E ' (concurrent\.futures|multiprocessing)$' "$out/grid.importtime"; then exit 1; fi
pfclust grid tests/data/synthetic_100x10.tsv --preset --seeds 0,1 --workers 1 --out "$out/g1"
for f in report.csv report.json summary.csv; do cmp "$out/g.$f" "$out/g1.$f"; done
pfclust cluster tests/data/synthetic_100x10.tsv --alg rough-kmeans --k 5 --seed 27 --normalize zscore --out "$out/cycle"
grep -q '"stop_reason": "cycle"' "$out/cycle.meta.json"
pfclust validate tests/data/synthetic_100x10.tsv --partition "$out/cycle.partition.csv" --centroids "$out/cycle.centroids.csv" -o "$out/cycle.validate.json"
grep -q '"m": 1.0' "$out/cycle.validate.json"
printf 's1\ng1\t-1.93746318743253\ng2\t-1.1809254487794874\ng3\t2.139255412850659\ng4\t0.9365148280171314\ng5\t-1.1809254487794874\ng6\t0.9365148280171314\ng7\t0.9365148280171314\n' > "$out/line.tsv"
pfclust cluster "$out/line.tsv" --alg kmeans --k 5 --seed 0 --out "$out/kcycle" 2> "$out/kcycle.err"
grep -q 'the centroids cycle' "$out/kcycle.err"
grep -q '"stop_reason": "cycle"' "$out/kcycle.meta.json"
rc=0; pfclust grid tests/data/synthetic_100x10.tsv --preset --out "$out/missing/g" || rc=$?; test "$rc" -eq 2
pfclust grid tests/data/synthetic_100x10.tsv --sizes 40,80 --ks 3 --policy seeded_random --seeds 0,1 --workers 2 --out "$out/random"
pfclust grid tests/data/synthetic_100x10.tsv --sizes 40,80 --ks 3 --algorithms kmeans,fcm --seeds 0,1 --workers 1 --out "$out/serial"
timeout 120 pfclust grid tests/data/synthetic_100x10.tsv --sizes 40,80 --ks 3 --algorithms kmeans,fcm --seeds 0,1 --workers 12 --out "$out/wide"
for f in report.csv report.json summary.csv; do cmp "$out/serial.$f" "$out/wide.$f"; done
printf '{"pairs": [[40, 3], [80, 2]], "algorithms": ["kmeans", "pfcm"], "seeds": [0, 1]}' > "$out/grid.json"
pfclust grid tests/data/synthetic_100x10.tsv --config "$out/grid.json" --out "$out/config"
rc=0; pfclust grid tests/data/synthetic_100x10.tsv --config "$out/grid.json" --seeds 1 --out "$out/config" || rc=$?; test "$rc" -eq 1
printf '{"pairs": [[40, 3]], "algorithms": ["rough-kmeans"], "overrides": {"rough-kmeans": {"zeta": 1.5}}}' > "$out/dashed.json"
pfclust grid tests/data/synthetic_100x10.tsv --config "$out/dashed.json" --out "$out/dashed"
pfclust grid tests/data/synthetic_100x10.tsv --sizes 40 --ks 3 --policy first-n --out "$out/first-n"
printf 's1\ts2\ng1\t1e154\t-1e154\ng2\t-1e154\t1e154\ng3\t1e154\t1e154\ng4\t-1e154\t-1e154\n' > "$out/big.tsv"
rc=0; pfclust cluster "$out/big.tsv" --alg kmeans --k 2 || rc=$?; test "$rc" -eq 3
pfclust cluster tests/data/synthetic_100x10.tsv --alg fcm --k 12 --out "$out/twelve"
pfclust validate tests/data/synthetic_100x10.tsv --partition "$out/twelve.partition.csv" --centroids "$out/twelve.centroids.csv"
rc=0; pfclust cluster tests/data/synthetic_100x10.tsv --alg fcm --k 200 || rc=$?; test "$rc" -eq 1
pfclust cluster tests/data/synthetic_100x10.tsv --alg kmeans --k 4 --out "$out/hard"
pfclust validate tests/data/synthetic_100x10.tsv --partition "$out/hard.partition.csv" --centroids "$out/hard.centroids.csv" -o "$out/hard.validate.json"
grep -q '"partition_kind": "hard"' "$out/hard.validate.json"
pfclust heatmap tests/data/synthetic_100x10.tsv --partition "$out/hard.partition.csv" -o "$out/hard.ppm"
sed '2s/,[0-9]*$/,1.0/' "$out/hard.partition.csv" > "$out/float.partition.csv"
rc=0; pfclust validate tests/data/synthetic_100x10.tsv --partition "$out/float.partition.csv" --centroids "$out/hard.centroids.csv" || rc=$?; test "$rc" -eq 2
sed '2s/,[0-9]*$/,99999999999999999999/' "$out/hard.partition.csv" > "$out/huge.partition.csv"
rc=0; pfclust validate tests/data/synthetic_100x10.tsv --partition "$out/huge.partition.csv" --centroids "$out/hard.centroids.csv" || rc=$?; test "$rc" -eq 2
rc=0; pfclust heatmap tests/data/synthetic_100x10.tsv --partition "$out/huge.partition.csv" -o "$out/huge.ppm" || rc=$?; test "$rc" -eq 2
printf 's1\ts2\ng1\t1_0\t2\ng2\t3\t5\n' > "$out/underscore.tsv"
pfclust normalize "$out/underscore.tsv" --method zscore -o "$out/underscore.z.tsv"
printf 's1\ts2\ng1\t1.5\037\t2\ng2\t3\t5\n' > "$out/unit.tsv"
rc=0; pfclust normalize "$out/unit.tsv" --method zscore -o "$out/unit.z.tsv" || rc=$?; test "$rc" -eq 2
printf 'Description\tAccession\ta\t\tb\t\n\n2\nd\tg1\t1\tP\t2\tA\nd\tg2\t3\tP\t5\tA\n' > "$out/two.res"
pfclust normalize "$out/two.res" --method zscore -o "$out/two.z.tsv"
mkdir -p "$out/with" "$out/alone"
pfclust normalize tests/data/synthetic_100x10.tsv --method zscore -o "$out/with/z.tsv"
test -f "$out/with/z.tsv.npy"
cp "$out/with/z.tsv" "$out/alone/z.tsv"
(cd "$out/with" && pfclust cluster z.tsv --alg pfcm --k 3 --out p)
(cd "$out/alone" && pfclust cluster z.tsv --alg pfcm --k 3 --out p)
for f in p.partition.csv p.centroids.csv p.meta.json; do cmp "$out/with/$f" "$out/alone/$f"; done
sed -i 's/$/\r/' "$out/with/z.tsv"
(cd "$out/with" && pfclust cluster z.tsv --alg pfcm --k 3 --out stale)
for f in partition.csv centroids.csv meta.json; do cmp "$out/with/stale.$f" "$out/alone/p.$f"; done
printf 'gx\t0.5\n' >> "$out/alone/z.tsv"
cp "$out/with/z.tsv.npy" "$out/alone/"
rc=0; pfclust cluster "$out/alone/z.tsv" --alg pfcm --k 3 --out "$out/short" || rc=$?; test "$rc" -eq 2
python - "$out/parts.tsv" <<'PY'
import sys
import numpy as np
x = np.random.default_rng(0).normal(size=(4000, 60))
with open(sys.argv[1], "w", encoding="utf-8") as f:
    f.write("\t".join(f"s{j}" for j in range(60)) + "\n")
    f.writelines(f"g{i}\t" + "\t".join(map(repr, row.tolist())) + "\n" for i, row in enumerate(x))
PY
for cpus in one all; do
  run=(); if [ "$cpus" = one ]; then run=(taskset -c 0); fi
  mkdir -p "$out/$cpus"
  "${run[@]}" pfclust normalize "$out/parts.tsv" --method zscore -o "$out/$cpus/z.tsv"
  "${run[@]}" pfclust cluster "$out/parts.tsv" --alg kmeans --k 5 --normalize zscore --out "$out/$cpus/c"
  "${run[@]}" python - "$out/parts.tsv" "$out/$cpus/z.tsv" <<'PY'
import io
import sys
from pfclust import normalize, read_matrix, write_tsv
text = io.StringIO()
write_tsv(normalize(read_matrix(sys.argv[1]), "zscore"), text)
with open(sys.argv[2], "rb") as f:
    assert text.getvalue().encode("utf-8") == f.read()
PY
done
for f in z.tsv z.tsv.npy c.partition.csv c.centroids.csv c.meta.json; do cmp "$out/one/$f" "$out/all/$f"; done
python - "$out" <<'PY'
import os
import sys
out = sys.argv[1]
data = open(f"{out}/parts.tsv", "rb").read()
head, *rows = data.split(b"\n")[:-1]
files = {
    "lf/m.tsv": data,
    "crlf/m.tsv": data.replace(b"\n", b"\r\n") + b"\r\n",
    "bad/m.tsv": data[:-1] + b"\xff\n",
    "gct/m.gct": b"#1.2\n%d\t%d\nName\tDescription\t%s\n" % (len(rows), head.count(b"\t") + 1, head)
                 + b"".join(r.replace(b"\t", b"\td\t", 1) + b"\n" for r in rows),
}
for name, body in files.items():
    os.makedirs(os.path.dirname(f"{out}/{name}"), exist_ok=True)
    with open(f"{out}/{name}", "wb") as f:
        f.write(body)
PY
for d in lf crlf gct; do (cd "$out/$d" && pfclust cluster m.* --alg kmeans --k 5 --out c); done
for f in c.partition.csv c.centroids.csv c.meta.json; do cmp "$out/lf/$f" "$out/crlf/$f"; done
for f in c.partition.csv c.centroids.csv; do cmp "$out/lf/$f" "$out/gct/$f"; done
rc=0; pfclust cluster "$out/bad/m.tsv" --alg kmeans --k 5 2> "$out/bad/err" || rc=$?; test "$rc" -eq 2
grep -q "^error: cannot read $out/bad/m.tsv: 'utf-8' codec can't decode byte 0xff" "$out/bad/err"
for alg in kmeans rough-kmeans fcm pfcm; do
  pfclust cluster tests/data/synthetic_100x10.tsv --alg "$alg" --k 3 --normalize zscore --out "$out/record-$alg"
done
python3 -c 'import json, sys
for alg in sys.argv[2:]:
    meta = json.load(open(f"{sys.argv[1]}/record-{alg}.meta.json"))
    assert {"iterations", "stop_reason", "converged"} <= meta.keys(), alg
    assert isinstance(meta["trace"], list), alg
    assert isinstance(meta["delta"], list) and len(meta["delta"]) == meta["iterations"], alg
    assert ("alpha" in meta) == (alg == "pfcm"), alg' "$out" kmeans rough-kmeans fcm pfcm
printf 's1\ts2\ng1\t1\t2\ng2\t3\t3\ng3\t2\t1\ng4\t0\t5\n' > "$out/flat.tsv"
pfclust cluster "$out/flat.tsv" --alg kmeans --k 2 --normalize zscore --drop-degenerate --out "$out/flat" 2> "$out/flat.err"
grep -qx 'warning: dropped 1 degenerate gene(s)' "$out/flat.err"
rc=0; pfclust cluster "$out/flat.tsv" --alg kmeans --k 2 --drop-degenerate --out "$out/nodrop" 2> "$out/nodrop.err" || rc=$?; test "$rc" -eq 1
test "$(wc -l < "$out/nodrop.err")" -eq 1
grep -q '^error: ' "$out/nodrop.err"
test "$(ls "$out"/nodrop.*)" = "$out/nodrop.err"
