#!/usr/bin/env bash
# End-to-end checks of the installed `pfclust` console script, which no test
# calls. Both CI jobs run it; run it from the repository root as
#
#     bash -eo pipefail ci/console-checks.sh OUT_DIR
#
# where OUT_DIR is an existing scratch directory. It checks, in order:
# - JSON to stdout from validate, and the binary PPM writer from heatmap;
# - the grid's thread pool;
# - a rough run that stops on a centroid cycle (so its matrix-product
#   centroid updates repeat bit for bit), validated without --m (so at the
#   grid's m = 1 for a rough file);
# - a grid refused (exit 2) for its missing output directory before it runs;
# - a seeded_random grid, whose subsets are keyed by size and seed;
# - a grid on more worker threads than it has runs, under a timeout so that a
#   scheduling hang fails fast, whose reports equal its one-worker reports;
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
#   stale; a stale companion hides no fault (a trailing blank line, exit 2).
set -eo pipefail
out=${1:?usage: ci/console-checks.sh OUT_DIR}

pfclust --version
pfclust cluster tests/data/synthetic_100x10.tsv --alg pfcm --k 3 --out "$out/smoke"
pfclust validate tests/data/synthetic_100x10.tsv --partition "$out/smoke.partition.csv" --centroids "$out/smoke.centroids.csv"
pfclust heatmap tests/data/synthetic_100x10.tsv --partition "$out/smoke.partition.csv" -o "$out/smoke.ppm"
pfclust grid tests/data/synthetic_100x10.tsv --preset --seeds 0,1 --workers 2 --out "$out/g"
pfclust cluster tests/data/synthetic_100x10.tsv --alg rough-kmeans --k 5 --seed 27 --normalize zscore --out "$out/cycle"
grep -q '"stop_reason": "cycle"' "$out/cycle.meta.json"
pfclust validate tests/data/synthetic_100x10.tsv --partition "$out/cycle.partition.csv" --centroids "$out/cycle.centroids.csv" -o "$out/cycle.validate.json"
grep -q '"m": 1.0' "$out/cycle.validate.json"
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
printf '\n' >> "$out/alone/z.tsv"
cp "$out/with/z.tsv.npy" "$out/alone/"
rc=0; pfclust cluster "$out/alone/z.tsv" --alg pfcm --k 3 --out "$out/blank" || rc=$?; test "$rc" -eq 2
