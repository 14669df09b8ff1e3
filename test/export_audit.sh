#!/bin/sh
# Export audit: every [val] of a lib/**/*.mli must be named by a caller
# outside its own module (lib/, bin/, bench/, perfbench/, examples/ or
# doc/), or be a deliberate test seam on the allowlist below.
#
#   sh test/export_audit.sh     (from the repository root)
#
# Prints one line per offending export, "DEAD Module.name" (named
# nowhere outside its module) or "TEST Module.name" (named only under
# test/), and one "STALE Module.name" line per allowlist entry that is
# no longer a test-only export; exits 1 when it prints anything.
#
# A name counts as used outside its module where it appears there as a
# word.  A common name (say [mean]) appears as a word almost everywhere,
# so a second, dot-qualified match ([X.mean]) decides: a name that is
# named qualified somewhere, but only under test/, is test-only.  The
# audit can still miss an unused export; it flags a used one only when
# every caller outside test/ names it unqualified (after [open]).

set -eu
cd "$(dirname "$0")/.."

# Deliberate test seams: exported only so the suite can reach them.
# One line each: Module.name, then why it stays.
allowlist='
Supervisor.plan_chunks  the chunk-partition property checks the fresh plan directly
Iddm.checkpoint_time  the checkpoint properties place strikes at and before grid instants
Json.max_depth  the nesting-limit tests send documents nested past it
Json.leftover  the torn-tail tests read the unterminated fragment the line reader never yields
'

sources=$(find lib bin bench perfbench examples doc test \
  -name '_build' -prune -o -type f \( -name '*.ml' -o -name '*.mli' -o -name '*.md' -o -name '*.mld' \) -print |
  sort)

allowed() { printf '%s\n' "$allowlist" | grep -q "^$1 "; }

status=0
seen=''
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%.mli}.ml
  base=$(basename "$mli" .mli)
  mod=$(printf '%s' "$base" | cut -c1 | tr 'a-z' 'A-Z')$(printf '%s' "$base" | cut -c2-)
  others=$(printf '%s\n' "$sources" | grep -v -x -e "$mli" -e "$ml")
  for v in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    hits=$(printf '%s\n' "$others" | xargs grep -l -w -- "$v" 2>/dev/null || true)
    qualified=$(printf '%s\n' "$others" |
      xargs grep -l -E -- "\.$v([^A-Za-z0-9_']|\$)" 2>/dev/null || true)
    if [ -z "$hits" ]; then
      kind=DEAD
    elif [ -z "$(printf '%s\n' "$hits" | grep -v '^test/')" ]; then
      kind=TEST
    elif [ -n "$qualified" ] && [ -z "$(printf '%s\n' "$qualified" | grep -v '^test/')" ]; then
      kind=TEST
    else
      continue
    fi
    if [ "$kind" = TEST ] && allowed "$mod.$v"; then
      seen="$seen $mod.$v"
    else
      echo "$kind $mod.$v"
      status=1
    fi
  done
done

for entry in $(printf '%s\n' "$allowlist" | sed -n 's/^\([A-Z][A-Za-z0-9_]*\.[a-z_][A-Za-z0-9_]*\) .*/\1/p'); do
  case " $seen " in
    *" $entry "*) ;;
    *)
      echo "STALE $entry"
      status=1
      ;;
  esac
done

exit $status
