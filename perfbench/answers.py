"""Reference answers and the correctness check, run outside the timed
interval.

An answer is a JSON-able dict.  The reference file maps each op key to one
of two entries:

- {"sha256": ...}: the answer must be identical to the recorded one.
- {"classes": {...}, "rest_sha256": ...}: the answer holds quantum classes
  flagged truncated.  Those are compared only above the boundary window
  that `toricqh.oracle._agree` uses (cutoff minus the negative valuation
  involved); the rest must be identical, except fields derived from the
  window terms (DERIVED), which may change when values become exact.

An entry may also carry "known_defect": a note on a wrong answer recorded at
the baseline (only `verify` ops have one).  The recorded answer and a
clean pass of the oracle suite both match it.  Every entry also records the op's cost in "cost_s", which only
orders ops into the strata that rounds draw from.
"""

import hashlib
import json
import os
from fractions import Fraction

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

DERIVED = ("exact_ok", "homology")


def digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _rest(answer):
    return {k: v for k, v in answer.get("rest", {}).items()
            if k not in DERIVED}


def reference_entry(answer):
    """The entry recorded for an answer."""
    if any(c["truncated"] for c in answer.get("classes", {}).values()):
        return {"classes": answer["classes"],
                "rest_sha256": digest(_rest(answer))}
    return {"sha256": digest(answer)}


def _atoms(qclass):
    out = {}
    for t in qclass["terms"]:
        key = (tuple(t["m"]), t["q"], Fraction(t["t"]))
        out[key] = out.get(key, Fraction(0)) + Fraction(t["c"])
    return {k: c for k, c in out.items() if c}


def window_agree(ref, got):
    """Serialized-class form of the oracle's agreement test."""
    if Fraction(ref["cutoff"]) != Fraction(got["cutoff"]):
        return False
    a, b = _atoms(ref), _atoms(got)
    diff = [k for k in a.keys() | b.keys() if a.get(k) != b.get(k)]
    if not diff:
        return True
    if not (ref["truncated"] or got["truncated"]):
        return False
    vals = [min(k[2] for k in x) for x in (a, b) if x]
    slack = max([Fraction(0)] + [-v for v in vals if v < 0])
    return min(k[2] for k in diff) > Fraction(ref["cutoff"]) - slack


def _clean_verify(answer):
    """The answer of an oracle suite without violations."""
    return answer.get("exit") == 0 and \
        answer.get("stdout", "").endswith("all checks passed\n")


def matches(entry, answer):
    if "known_defect" in entry and _clean_verify(answer):
        return True
    if "sha256" in entry:
        return digest(answer) == entry["sha256"]
    classes = answer.get("classes", {})
    if set(classes) != set(entry["classes"]):
        return False
    return (digest(_rest(answer)) == entry["rest_sha256"]
            and all(window_agree(entry["classes"][k], classes[k])
                    for k in classes))


def load_reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)
