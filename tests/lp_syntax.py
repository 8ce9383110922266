"""A test oracle for LP text: the section structure and constraint-row
syntax that `alwabp.export.emit_model` must produce. The package itself
does not check its LP output; the tests and acceptance criterion 7 do."""

import re


class LpSyntaxError(ValueError):
    pass


_ROW_RE = re.compile(r"^[A-Za-z0-9_]+:(\s+-?\s*\d*\s*[A-Za-z_][A-Za-z0-9_]*|\s+[+-])+\s+(<=|>=|=)\s+-?\d+$")


def tokenize_lp(text):
    """Split LP text into its sections and validate their structure.

    Accepts an optional leading comment block, then Minimize, Subject To,
    optional Bounds, optional Binaries, and a final End. Raises LpSyntaxError
    on imbalance or malformed rows.
    """
    sections = {"comments": [], "objective": [], "constraints": [], "bounds": [], "binaries": []}
    current = None
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            sections["comments"].append(line[1:].strip())
            continue
        if ended:
            raise LpSyntaxError(f"line {lineno}: content after End")
        if line == "Minimize":
            if current is not None:
                raise LpSyntaxError(f"line {lineno}: Minimize must open the model")
            current = "objective"
            continue
        if line == "Subject To":
            if current != "objective":
                raise LpSyntaxError(f"line {lineno}: Subject To before Minimize")
            current = "constraints"
            continue
        if line == "Bounds":
            if current != "constraints":
                raise LpSyntaxError(f"line {lineno}: Bounds out of order")
            current = "bounds"
            continue
        if line == "Binaries":
            if current not in ("constraints", "bounds"):
                raise LpSyntaxError(f"line {lineno}: Binaries out of order")
            current = "binaries"
            continue
        if line == "End":
            if current is None:
                raise LpSyntaxError(f"line {lineno}: End without a model")
            ended = True
            continue
        if current is None:
            raise LpSyntaxError(f"line {lineno}: content before Minimize")
        if current == "constraints" and not _ROW_RE.match(line):
            raise LpSyntaxError(f"line {lineno}: malformed constraint row: {line!r}")
        if current == "binaries":
            sections["binaries"].extend(line.split())
        else:
            sections[current].append(line)
    if not ended:
        raise LpSyntaxError("missing End")
    if not sections["objective"] or not sections["constraints"]:
        raise LpSyntaxError("model must contain an objective and constraints")
    return sections
