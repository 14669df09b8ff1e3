#!/bin/sh
# Export audit: every [val] of a lib/**/*.mli must be named by a caller
# outside its own module (lib/, bin/, bench/, perfbench/, examples/ or
# doc/), and every optional label of one must be passed by a caller
# outside its module in lib/, bin/, bench/ or perfbench/, unless the
# export or label is a deliberate test seam on the allowlist below.
#
#   sh test/export_audit.sh     (from the repository root)
#
# Prints one line per offence and exits 1 when it prints anything:
#   DEAD Module.name         named nowhere outside its module;
#   TEST Module.name         named only under test/;
#   LABEL Module.name?label  no caller outside test/ and examples/
#                            passes the label;
#   STALE entry              an allowlist entry that no longer flags.
#
# A name counts as used outside its module where it appears there as a
# word.  A common name (say [mean]) appears as a word almost everywhere,
# so a second, module-qualified match decides: a name that is named
# qualified somewhere, but only under test/, is test-only.  Qualified
# means [Mod.name], [Halotis_lib.Mod.name], or [Alias.name] where the
# file says [module Alias = ...Mod] (for a module nested in an
# interface, [Sub.name]).  Two libraries may hold a module of one name
# (lib/engine and lib/analog both have a [Sim]); a bare [Sim.name]
# counts for both.  A label counts as passed where [~label] or [?label]
# follows a qualified call of its function within ten lines.  The audit
# can still miss an unused export or label; it flags a used one only
# when every caller outside test/ names it unqualified.

set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

# Deliberate test seams: exported only so the suite can reach them.
# One line each: Module.name (or Module.name?label), then why it stays.
allowlist='
Supervisor.plan_chunks  the chunk-partition property checks the fresh plan directly
Json.max_depth  the nesting-limit tests send documents nested past it
Json.leftover  the torn-tail tests read the unterminated fragment the line reader never yields
Table.render  the table tests read the text that Table.print writes to stdout
Iddm.cone_workspace?grid  the cut-point properties put checkpoints at instants they choose
Classic.cone_workspace?grid  the classic cut-point property puts checkpoints at instants it chooses
Generators.fig1_circuit?vt_low  the threshold tests check that a non-default pin VT reaches g1
Generators.fig1_circuit?vt_high  the threshold tests check that a non-default pin VT reaches g2
Generators.ripple_carry_adder?nand_only  a 2-bit adder drives the NAND9 full adder with every (a, b, cin)
'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

sources=$(find lib bin bench perfbench examples doc test \
  -name '_build' -prune -o -type f \( -name '*.ml' -o -name '*.mli' -o -name '*.md' -o -name '*.mld' \) -print |
  sort)

# Rewrite every [Alias.] to the path its [module Alias = Path] names
# (in the file, or in a sibling file it opens), so one pattern per
# export finds its qualified uses in the copies.
for f in $sources; do
  mkdir -p "$tmp/$(dirname "$f")"
  opened=$(sed -n 's/^open \([A-Z]\)\([A-Za-z0-9_]*\)$/\1\2/p' "$f" | while read -r m; do
    sib=$(dirname "$f")/$(printf '%s' "$m" | cut -c1 | tr 'A-Z' 'a-z')$(printf '%s' "$m" | cut -c2-).ml
    if [ -f "$sib" ]; then echo "$sib"; fi
  done)
  # shellcheck disable=SC2086
  awk '
    match($0, /module [A-Z][A-Za-z0-9_]* = [A-Z][A-Za-z0-9_.]*[A-Za-z0-9_]( in)? *$/) {
      split(substr($0, RSTART + 7), def, / = /)
      path = def[2]
      sub(/( in)? *$/, "", path)
      printf "s#(^|[^A-Za-z0-9_'"'"'.])%s\\.#\\1%s.#g\n", def[1], path
    }' $opened "$f" > "$tmp/aliases.sed"
  sed -E -f "$tmp/aliases.sed" "$f" > "$tmp/$f"
done
cd "$tmp"

allowed() { printf '%s\n' "$allowlist" | grep -q "^$1 "; }

# "Sub val label" per optional label, "Sub val -" per val; Sub is the
# interface's nested module, or "-" at top level.
interface() {
  awk '
    /^module [A-Z][A-Za-z0-9_]* *: *sig/ { sub_ = $2; sub(/:.*/, "", sub_) }
    /^end( |$)/ { sub_ = "" }
    /^ *(type|exception|module|external) / && !/^module [A-Z][A-Za-z0-9_]* *: *sig/ { v = "" }
    /^ *val [a-z_]/ {
      v = $2; sub(/:.*/, "", v)
      print (sub_ == "" ? "-" : sub_), v, "-"
    }
    v != "" {
      line = $0
      while (match(line, /\?[a-z_][A-Za-z0-9_'"'"']*:/)) {
        print (sub_ == "" ? "-" : sub_), v, substr(line, RSTART + 1, RLENGTH - 2)
        line = substr(line, RSTART + RLENGTH)
      }
    }' "$1"
}

status=0
seen=''
flag() {
  if [ "$1" != DEAD ] && allowed "$2"; then
    seen="$seen $2"
  else
    echo "$1 $2"
    status=1
  fi
}

for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%.mli}.ml
  base=$(basename "$mli" .mli)
  mod=$(printf '%s' "$base" | cut -c1 | tr 'a-z' 'A-Z')$(printf '%s' "$base" | cut -c2-)
  lib=$(sed -n 's/.*(name \([a-z_]*\)).*/\1/p' "$root/$(dirname "$mli")/dune" | head -n 1)
  lib=$(printf '%s' "$lib" | cut -c1 | tr 'a-z' 'A-Z')$(printf '%s' "$lib" | cut -c2-)
  others=$(printf '%s\n' "$sources" | grep -v -x -e "$mli" -e "$ml")
  callers=$(printf '%s\n' "$others" | grep -E '^(lib|bin|bench|perfbench)/.*\.ml$')
  interface "$mli" > "$tmp/interface"
  while read -r sub v label; do
    if [ "$sub" = - ]; then
      qual="($lib\\.)?$mod"
      left="[^A-Za-z0-9_'.]"
    else
      qual=$sub
      left="[^A-Za-z0-9_']"
    fi
    if [ "$label" = - ]; then
      hits=$(printf '%s\n' "$others" | xargs grep -l -w -- "$v" 2>/dev/null || true)
      qualified=$(printf '%s\n' "$others" |
        xargs grep -l -E -- "(^|$left)$qual\\.$v([^A-Za-z0-9_']|\$)" 2>/dev/null || true)
      if [ -z "$hits" ]; then
        flag DEAD "$mod.$v"
      elif [ -z "$(printf '%s\n' "$hits" | grep -v '^test/')" ]; then
        flag TEST "$mod.$v"
      elif [ -n "$qualified" ] && [ -z "$(printf '%s\n' "$qualified" | grep -v '^test/')" ]; then
        flag TEST "$mod.$v"
      fi
    else
      passed=$(printf '%s\n' "$callers" | xargs awk -v left="$left" -v q="$qual" -v v="$v" -v l="$label" '
        FNR == 1 { if (n) scan(); n = 0; name = FILENAME }
        { line[++n] = $0 }
        END { if (n) scan() }
        function scan(   i, j) {
          for (i = 1; i <= n; i++)
            if (line[i] ~ ("(^|" left ")" q "\\." v "([^A-Za-z0-9_'"'"']|$)"))
              for (j = i; j <= i + 10 && j <= n; j++)
                if (line[j] ~ ("[~?]" l "([^A-Za-z0-9_'"'"']|$)")) { print name; return }
        }')
      [ -n "$passed" ] || flag LABEL "$mod.$v?$label"
    fi
  done < "$tmp/interface"
done

for entry in $(printf '%s\n' "$allowlist" | sed -n 's/^\([A-Z][^ ]*\) .*/\1/p'); do
  case " $seen " in
    *" $entry "*) ;;
    *)
      echo "STALE $entry"
      status=1
      ;;
  esac
done

exit $status
