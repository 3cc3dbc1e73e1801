#!/usr/bin/env bash
# Checks of the installed `whichway` console script that need processes of
# their own.  Every behaviour that one in-process main(argv) call shows is
# checked in tests/test_cli.py, and only there; a check belongs here only
# when it needs a fresh process.  CI runs this script before scipy is
# installed, so the commands run on the package's runtime alone.  It checks:
# - `rank` and the four commands end to end: the console script's entry
#   point and each command's imports, which only the installed script in a
#   new process shows;
# - the scans' bits on one core (`taskset -c 0`) and on all: the default
#   scan artifacts, three scans that read two shared pupil tables, and the
#   one error line of a scan that fails the imaging sampling bound.  A
#   scan's thread count follows the cores that its process may use, which
#   are fixed when the process starts;
# - two reconstructs and two reports in one process against those of
#   processes of their own: the module-level caches (the factored solve,
#   the profile match's rows) start empty only in a new process;
# - a scan's peak resident memory at grid_n 2^24 against 2^17: the
#   high-water mark belongs to a process, so each scan is the only child of
#   its own python.
#
#     bash ci/console.sh
set -euo pipefail

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

test "$(whichway rank -w 40 --n-max 121)" = "40, 41, 80, 81, 120, 121"
whichway fringes --out "$tmp/run" --seed 0 --no-noise
whichway scan --out "$tmp/run" --seed 0 --no-noise
whichway reconstruct --out "$tmp/run" --seed 0 --no-noise
whichway report --out "$tmp/run" --seed 0 --no-noise
test -s "$tmp/run/summary.txt"
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
# a sampling-bound failure names its scan: the same one error line on one
# core and on all, exit 2, and no directory
echo '{"geometry": {}, "scans": [{"aperture_width_m": 0.004},
  {"aperture_width_m": 0.005, "stage_ratio": 5.0}]}' > "$tmp/bound.json"
one=0
taskset -c 0 whichway scan --config "$tmp/bound.json" --out "$tmp/bound-one" 2> "$tmp/err-one" || one=$?
all=0
whichway scan --config "$tmp/bound.json" --out "$tmp/bound-all" 2> "$tmp/err-all" || all=$?
test "$one" = 2
test "$all" = 2
test "$(wc -l < "$tmp/err-one")" = 1
grep -q '^error: scan a5mm: scan step 0 .*sampling bound' "$tmp/err-one"
cmp "$tmp/err-one" "$tmp/err-all"
test ! -e "$tmp/bound-one"
test ! -e "$tmp/bound-all"
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
test "$((large - small))" -lt 4096
test "$((small - large))" -lt 4096
