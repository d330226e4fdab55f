#!/usr/bin/env python3
"""Docs-sync lint for the CI docs job.

Usage: scripts/check_docs.py  (run from anywhere; paths resolve to the
repo root, the parent of this script's directory)

Fails (exit 1) when documentation has rotted behind the code:

  1. Every runtime environment variable the sources read
     (getenv("TENDER_*") in src/) is documented in docs/tuning.md.
  2. Every TENDER_* variable the shell scripts consume (scripts/*.sh)
     is documented in docs/tuning.md.
  3. Every CMake option(TENDER_...) in CMakeLists.txt is documented in
     docs/tuning.md.
  4. Every field of the user-facing options structs — SchedulerOptions,
     DecodeOptions, ServeSessionOptions, KVCacheConfig — is documented
     in docs/tuning.md. Fields are parsed from the struct bodies in the
     headers, so adding a knob without documenting it fails CI.
     Conversely, every row of a ## `Struct` table in docs/tuning.md must
     name a current field of that struct, so removing a knob without
     deleting its row fails CI too.
  5. Every relative markdown link in README.md, ROADMAP.md, CHANGES.md,
     and docs/*.md resolves to an existing file (anchors are stripped;
     http(s) links and GitHub-web-relative badge paths are not checked).

The check is name-presence, not prose quality — it guarantees the
tuning table cannot silently miss a knob, not that the description is
good. Keep descriptions honest in review.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

OPTION_STRUCTS = {
    "SchedulerOptions": "src/runtime/batch_scheduler.h",
    "DecodeOptions": "src/runtime/decode_engine.h",
    "ServeSessionOptions": "src/serve/serve_session.h",
    "KVCacheConfig": "src/runtime/kv_cache.h",
    # Per-request knobs are user-facing too (the std::function hook
    # members are invisible to the field regex, which is fine — they are
    # callbacks, not tunables).
    "ServeRequest": "src/serve/request.h",
    "SpeculationParams": "src/runtime/draft.h",
}

MARKDOWN_FILES = ["README.md", "ROADMAP.md", "CHANGES.md"]
# ... plus docs/*.md, found below


def fail(msg):
    print(f"check_docs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def read(path):
    try:
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        fail(f"{path}: {e}")


def walk_sources(top, suffixes):
    for dirpath, _dirnames, filenames in os.walk(os.path.join(ROOT, top)):
        for name in filenames:
            if name.endswith(suffixes):
                yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def env_vars_in_sources():
    """TENDER_* names read via getenv in the C++ sources."""
    found = {}
    for path in walk_sources("src", (".cc", ".h")):
        for var in re.findall(r'getenv\(\s*"(TENDER_[A-Z0-9_]+)"',
                              read(path)):
            found.setdefault(var, path)
    return found


def env_vars_in_scripts():
    """TENDER_* names the shell scripts consume (incl. docs in comments —
    a variable worth mentioning in a script header is worth a row in the
    tuning table)."""
    found = {}
    scripts_dir = os.path.join(ROOT, "scripts")
    for name in sorted(os.listdir(scripts_dir)):
        if not name.endswith(".sh"):
            continue
        path = os.path.join("scripts", name)
        for var in re.findall(r"\b(TENDER_[A-Z0-9_]+)\b", read(path)):
            found.setdefault(var, path)
    return found


def cmake_options():
    found = {}
    for opt in re.findall(r"option\(\s*(TENDER_[A-Z0-9_]+)",
                          read("CMakeLists.txt")):
        found.setdefault(opt, "CMakeLists.txt")
    return found


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def struct_fields(struct_name, path):
    """Names of the data members declared directly in `struct_name`."""
    text = read(path)
    m = re.search(rf"struct {struct_name}\b.*?\{{(.*?)\n\}};", text,
                  flags=re.S)
    if m is None:
        fail(f"{path}: struct {struct_name} not found (check_docs.py "
             "needs updating if it moved)")
    body = strip_comments(m.group(1))
    fields = []
    depth = 0
    for raw in body.split("\n"):
        line = raw.strip()
        # Skip nested braces (member functions, nested types) and
        # non-field lines; count depth before matching so only
        # top-level declarations are considered.
        if depth == 0:
            dm = re.match(
                r"(?:[A-Za-z_][\w:<>,\s]*?[\s&*])([A-Za-z_]\w*)"
                r"\s*(?:=[^;]*)?;",
                line)
            if dm and not line.startswith(("static", "using", "typedef",
                                           "friend", "return")):
                fields.append(dm.group(1))
        depth += raw.count("{") - raw.count("}")
    if not fields:
        fail(f"{path}: no fields parsed from struct {struct_name} "
             "(parser or struct layout changed)")
    return fields


def struct_table_rows(tuning):
    """{struct: [first-column names]} for each ## `Struct` table."""
    rows = {}
    struct = None
    for line in tuning.split("\n"):
        if line.startswith("## "):
            m = re.match(r"## `(\w+)`", line)
            struct = m.group(1) if m else None
            if struct is not None:
                rows[struct] = []
        elif struct is not None:
            m = re.match(r"\|\s*`(\w+)`\s*\|", line)
            if m:
                rows[struct].append(m.group(1))
    return rows


def check_tuning_table():
    tuning = read("docs/tuning.md")
    missing = []
    stale = []

    for var, where in sorted({**env_vars_in_sources(),
                              **env_vars_in_scripts(),
                              **cmake_options()}.items()):
        if var not in tuning:
            missing.append(f"{var} (from {where})")

    n_fields = 0
    fields = {}
    for struct, path in OPTION_STRUCTS.items():
        fields[struct] = struct_fields(struct, path)
        for field in fields[struct]:
            n_fields += 1
            if not re.search(rf"`{re.escape(field)}`", tuning):
                missing.append(f"{struct}::{field} (from {path})")

    for struct, names in struct_table_rows(tuning).items():
        if struct not in fields:
            stale.append(f"## `{struct}` table (struct not in "
                         "check_docs.py OPTION_STRUCTS)")
            continue
        stale += [f"{struct}::{name} (no such field in "
                  f"{OPTION_STRUCTS[struct]})"
                  for name in names if name not in fields[struct]]

    if missing:
        fail("docs/tuning.md is missing documentation for:\n  " +
             "\n  ".join(missing))
    if stale:
        fail("docs/tuning.md documents fields that no longer exist:\n  " +
             "\n  ".join(stale))
    print(f"check_docs: docs/tuning.md covers every TENDER_* variable, "
          f"CMake option, and all {n_fields} options-struct fields")


def markdown_files():
    files = list(MARKDOWN_FILES)
    docs_dir = os.path.join(ROOT, "docs")
    if os.path.isdir(docs_dir):
        files += sorted(os.path.join("docs", n)
                        for n in os.listdir(docs_dir)
                        if n.endswith(".md"))
    return files


def check_links():
    broken = []
    checked = 0
    for md in markdown_files():
        base = os.path.dirname(os.path.join(ROOT, md))
        for text, target in re.findall(r"\[([^\]]*)\]\(([^)\s]+)\)",
                                       read(md)):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            full = os.path.normpath(os.path.join(base, path))
            # Paths that climb out of the repo (../../actions/... badge
            # URLs) are GitHub-web convention, not files on disk.
            if not full.startswith(ROOT + os.sep):
                continue
            checked += 1
            if not os.path.exists(full):
                broken.append(f"{md}: [{text}]({target})")
    if broken:
        fail("broken relative markdown links:\n  " + "\n  ".join(broken))
    print(f"check_docs: {checked} relative markdown links resolve across "
          f"{len(markdown_files())} files")


def main():
    check_tuning_table()
    check_links()
    print("check_docs: all docs-sync checks OK")


if __name__ == "__main__":
    main()
