#!/usr/bin/env bash
# Checks of the installed `whichway` console script: the rank command's
# closed-form rule on known cases and its refusal of a config, a stage that
# fails before writing, a run option placed before the subcommand, config
# keys that are constants now ("opening" and "anchor_elems" in a scan,
# "cutoff" in the reconstruction block), then the four commands end to end,
# a report that does not read reconstruction.csv, a reconstruct that rejects
# a sidecar whose total flux is not its CSV's, scan artifacts that do not
# depend on the core count, two reconstructs and two reports in one process
# that write what separate processes wrote, a scan whose peak memory does
# not grow with the source grid, and an output directory that cannot be
# created.
#
#     bash ci/console.sh
set -euo pipefail

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

test "$(whichway rank -w 40 --n-max 121)" = "40, 41, 80, 81, 120, 121"
# every dimension is full rank for a width up to the anchor of 20 steps
test "$(whichway rank -w 8 --n-max 12)" = "8, 9, 10, 11, 12"
test "$(whichway rank -w 40 --n-max 1000000 | tr ',' '\n' | wc -l)" = "49999"
# rank reads no config: --config exits 2 with one error line and writes nothing
mkdir "$tmp/empty"
echo '{"geometry": {}}' > "$tmp/x.json"
status=0
(cd "$tmp/empty" && whichway rank --config "$tmp/x.json" -w 8 --n-max 12 2> "$tmp/err") || status=$?
test "$status" = 2
test "$(grep -c 'error:' "$tmp/err")" = 1
test -z "$(ls -A "$tmp/empty")"
# a stage that rejects its arguments exits 2 and creates no directory
status=0
(cd "$tmp/empty" && whichway reconstruct --widths-mm 4,5 2> /dev/null) || status=$?
test "$status" = 2
test -z "$(ls -A "$tmp/empty")"
# the run options follow the subcommand; before it they exit 2 and write nothing
status=0
(cd "$tmp" && whichway --out "$tmp/top" fringes 2> /dev/null) || status=$?
test "$status" = 2
test ! -e "$tmp/top" && test ! -e "$tmp/runs"
# keys that are constants now: a config naming one exits 2 with one error
# line that names the block and the key, and writes nothing
while read -r key block config; do
  echo "$config" > "$tmp/$key.json"
  status=0
  whichway scan --config "$tmp/$key.json" --out "$tmp/$key" < /dev/null 2> "$tmp/err" || status=$?
  test "$status" = 2
  test "$(wc -l < "$tmp/err")" = 1
  grep -q "^error: .*$block.*\"$key\"" "$tmp/err"
  test ! -e "$tmp/$key"
done << 'EOF'
opening scans\[0\] {"geometry": {}, "scans": [{"aperture_width_m": 0.004, "opening": "rightward"}]}
anchor_elems scans\[0\] {"geometry": {}, "scans": [{"aperture_width_m": 0.004, "anchor_elems": 20}]}
cutoff reconstruction {"geometry": {}, "reconstruction": {"cutoff": 1e-10}}
EOF
whichway fringes --out "$tmp/run" --seed 0 --no-noise
whichway scan --out "$tmp/run" --seed 0 --no-noise
whichway reconstruct --out "$tmp/run" --seed 0 --no-noise
whichway report --out "$tmp/run" --seed 0 --no-noise
test -s "$tmp/run/summary.txt"
# report solves V from the scans it reads, not from reconstruction.csv
cp -r "$tmp/run" "$tmp/no-recon"
rm "$tmp/no-recon/reconstruction.csv"
whichway report --out "$tmp/no-recon" --seed 0 --no-noise > /dev/null
for f in duality.json summary.txt; do
  cmp "$tmp/run/$f" "$tmp/no-recon/$f"
done
# reconstruct checks each sidecar's total flux against its CSV, as report
# does: a total 50 times too large exits 3 with one error line
cp -r "$tmp/run" "$tmp/flux-x50"
python -c 'import json, sys
path = sys.argv[1]
with open(path) as fh:
    sidecar = json.load(fh)
sidecar["total_flux_sum"] *= 50
with open(path, "w") as fh:
    json.dump(sidecar, fh)' "$tmp/flux-x50/scan_a4mm.json"
status=0
whichway reconstruct --out "$tmp/flux-x50" --seed 0 --no-noise > /dev/null 2> "$tmp/err" || status=$?
test "$status" = 3
test "$(wc -l < "$tmp/err")" = 1
grep -q '^error: ' "$tmp/err"
# the scans run on one thread per usable core; their bits must not change
taskset -c 0 whichway scan --out "$tmp/one-core" --seed 0
whichway scan --out "$tmp/all-cores" --seed 0
for f in scan_a4mm.csv scan_a4mm.json scan_a5mm.csv scan_a5mm.json; do
  cmp "$tmp/one-core/$f" "$tmp/all-cores/$f"
done
# the factor cache and the profile match's rows carry nothing from one run to
# the next: a noisy reconstruct and report, then --no-noise ones, made in one
# process write what a process of its own wrote for each
whichway fringes --out "$tmp/all-cores" --seed 0
whichway reconstruct --out "$tmp/all-cores" --seed 0
whichway report --out "$tmp/all-cores" --seed 0 > /dev/null
cp -r "$tmp/all-cores" "$tmp/noisy-again"
cp -r "$tmp/run" "$tmp/clean-again"
rm "$tmp"/{noisy,clean}-again/reconstruction.{csv,json}
python -c 'import sys
from whichway.cli import main
noisy, clean = sys.argv[1:]
sys.exit(main(["reconstruct", "--out", noisy, "--seed", "0"])
         or main(["reconstruct", "--out", clean, "--seed", "0", "--no-noise"])
         or main(["report", "--out", noisy, "--seed", "0"])
         or main(["report", "--out", clean, "--seed", "0", "--no-noise"]))' \
  "$tmp/noisy-again" "$tmp/clean-again" > /dev/null
for f in reconstruction.csv reconstruction.json duality.json summary.txt; do
  cmp "$tmp/all-cores/$f" "$tmp/noisy-again/$f"
  cmp "$tmp/run/$f" "$tmp/clean-again/$f"
done
# the source keeps only its slits' window, so a grid 128 times longer leaves
# a scan's peak resident memory within 4 MB (a whole-grid source took 25 MB
# more at 2^24); each scan runs as the only child of its own python
scan_peak_kb() {  # of `whichway scan --no-noise` at grid_n 2^$1
  echo "{\"geometry\": {}, \"source\": {\"grid_n\": $((2 ** $1))}}" > "$tmp/grid$1.json"
  python -c 'import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' \
    whichway scan --config "$tmp/grid$1.json" --out "$tmp/grid$1" --no-noise
}
small="$(scan_peak_kb 17)"
large="$(scan_peak_kb 24)"
test "$((large - small))" -lt 4096 && test "$((small - large))" -lt 4096
# an --out that names a file exits 3 with one error line
status=0
whichway fringes --out "$tmp/run/summary.txt" 2> "$tmp/err" || status=$?
test "$status" = 3
test "$(wc -l < "$tmp/err")" = 1
grep -q '^error: ' "$tmp/err"
