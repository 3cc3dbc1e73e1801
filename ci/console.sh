#!/usr/bin/env bash
# Checks of the installed `whichway` console script: the rank command's
# closed-form rule on known cases and its refusal of a config, a stage that
# fails before writing, a run option placed before the subcommand, config
# keys that are constants now ("opening" and "anchor_elems" in a scan, and
# the reconstruction and metrics blocks with "cutoff", "smoothing_rms_m",
# "peak_selector" and "guard_px", and a scan's "midline" of "center", the
# rule that went), an illumination tilt beyond +-2, a readout
# noise whose 4-frame sigma overflows, then the four commands end to end, a
# report that does not read reconstruction.csv, a reconstruct that rejects a
# sidecar whose total flux is not its CSV's, a scan
# whose sidecar fails (at an exposure too short for any light) that writes no
# file, neither into a fresh directory nor over an existing run, a short scan
# whose readout noise alone sums positive that exits 4 below its light floor
# and creates no directory, scan
# artifacts that do not depend on the core count, nor do those of three
# scans that read two shared pupil tables, two reconstructs and two
# reports in one process that write what separate processes wrote, a scan
# whose peak memory does not grow with the source grid, and an output
# directory that cannot be created.
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
# line that names the unknown key, or the unknown block that held it, and
# writes nothing; so does a midline other than the centroid, naming its scan
while read -r key pattern config; do
  echo "$config" > "$tmp/$key.json"
  status=0
  whichway scan --config "$tmp/$key.json" --out "$tmp/$key" < /dev/null 2> "$tmp/err" || status=$?
  test "$status" = 2
  test "$(wc -l < "$tmp/err")" = 1
  grep -q "^error: .*$pattern" "$tmp/err"
  test ! -e "$tmp/$key"
done << 'EOF'
opening scans\[0\].*"opening" {"geometry": {}, "scans": [{"aperture_width_m": 0.004, "opening": "rightward"}]}
anchor_elems scans\[0\].*"anchor_elems" {"geometry": {}, "scans": [{"aperture_width_m": 0.004, "anchor_elems": 20}]}
cutoff config.*"reconstruction" {"geometry": {}, "reconstruction": {"cutoff": 1e-10}}
smoothing_rms_m config.*"reconstruction" {"geometry": {}, "reconstruction": {"smoothing_rms_m": 1.0}}
peak_selector config.*"metrics" {"geometry": {}, "metrics": {"peak_selector": "central"}}
guard_px config.*"metrics" {"geometry": {}, "metrics": {"guard_px": 600}}
midline scans\[0\].*midline {"geometry": {}, "scans": [{"aperture_width_m": 0.004, "midline": "center"}]}
EOF
# a tilt beyond +-2 would drive one slit's amplitude 1 -+ tilt/2 negative:
# it exits 2 with one error line naming the key, and creates no directory
echo '{"geometry": {}, "source": {"illumination_tilt": 2.5}}' > "$tmp/tilt.json"
status=0
whichway fringes --config "$tmp/tilt.json" --out "$tmp/tilt" 2> "$tmp/err" || status=$?
test "$status" = 2
test "$(wc -l < "$tmp/err")" = 1
grep -q '^error: source\.illumination_tilt ' "$tmp/err"
test ! -e "$tmp/tilt"
# a readout noise whose 4-frame sigma overflows the float range exits 2 with
# one error line, before any draw, and creates no directory
echo '{"geometry": {}, "detector": {"readout_noise_e": 1e308}}' > "$tmp/readout.json"
status=0
whichway scan --config "$tmp/readout.json" --out "$tmp/readout" 2> "$tmp/err" || status=$?
test "$status" = 2
test "$(wc -l < "$tmp/err")" = 1
grep -q '^error: .*readout_noise_e.*frames_per_step' "$tmp/err"
test ! -e "$tmp/readout"
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
# a scan whose sidecar fails writes nothing: at 1e-9 s no light reaches the
# camera, so the noisy seed-0 scan exits non-zero with one error line, creates
# no directory, and over an existing run leaves every scan file as it was
echo '{"geometry": {}, "scans": [
  {"aperture_width_m": 0.004, "midline": "centroid", "exposure_s": 1e-9},
  {"aperture_width_m": 0.005, "midline": "centroid", "exposure_s": 1e-9}]}' > "$tmp/dark.json"
cp -r "$tmp/run" "$tmp/dark-over"
for out in "$tmp/dark-fresh/nested" "$tmp/dark-over"; do
  status=0
  whichway scan --config "$tmp/dark.json" --out "$out" --seed 0 > /dev/null 2> "$tmp/err" || status=$?
  test "$status" != 0
  test "$(wc -l < "$tmp/err")" = 1
  grep -q '^error: ' "$tmp/err"
done
test ! -e "$tmp/dark-fresh"
for f in scan_a4mm.csv scan_a4mm.json scan_a5mm.csv scan_a5mm.json; do
  cmp "$tmp/run/$f" "$tmp/dark-over/$f"
done
# four steps with no light, whose seed-0 readout noise sums to +23.4: the
# total does not clear 5 sigma of that noise (960), so scan exits 4 with one
# error line and creates no directory
echo '{"geometry": {}, "scans": [{"aperture_width_m": 0.004, "step_m": 0.001,
  "n_steps": 4, "s_start_m": -0.002, "exposure_s": 1e-300}]}' > "$tmp/no-light.json"
status=0
whichway scan --config "$tmp/no-light.json" --out "$tmp/no-light" --seed 0 2> "$tmp/err" || status=$?
test "$status" = 4
test "$(grep -c 'error:' "$tmp/err")" = 1
grep -q '^error: scan a4mm: total flux .* is not above its light floor ' "$tmp/err"
test ! -e "$tmp/no-light"
# the scans run on one thread per usable core; their bits must not change
taskset -c 0 whichway scan --out "$tmp/one-core" --seed 0
whichway scan --out "$tmp/all-cores" --seed 0
for f in scan_a4mm.csv scan_a4mm.json scan_a5mm.csv scan_a5mm.json; do
  cmp "$tmp/one-core/$f" "$tmp/all-cores/$f"
done
# the 4 and 5 mm scans read one pupil table and the 1 mm scan, whose left
# edge differs, another; with shared tables the bits must not change either
echo '{"geometry": {}, "scans": [{"aperture_width_m": 0.001}, {"aperture_width_m": 0.004},
  {"aperture_width_m": 0.005}]}' > "$tmp/groups.json"
taskset -c 0 whichway scan --config "$tmp/groups.json" --out "$tmp/groups-one-core" --no-noise --seed 0
whichway scan --config "$tmp/groups.json" --out "$tmp/groups-all-cores" --no-noise --seed 0
for f in scan_a1mm.csv scan_a1mm.json scan_a4mm.csv scan_a4mm.json scan_a5mm.csv scan_a5mm.json; do
  cmp "$tmp/groups-one-core/$f" "$tmp/groups-all-cores/$f"
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
