"""On-disk corpus helpers: read projects in the loader layout, turn them into
`coevo serve` events, touch DDL versions, and write appended events back so
a batch `coevo study --from` sees the same event set as the daemon.

The loader layout is one directory per project holding `manifest.json`,
`git.log` (a `git log --name-status` dump, newest commit first) and
`versions/NNNN.sql`.
"""

import json
import os


def project_dirs(corpus):
    """Project directories of an on-disk corpus, in sorted order."""
    return sorted(
        os.path.join(corpus, d)
        for d in os.listdir(corpus)
        if os.path.isfile(os.path.join(corpus, d, "manifest.json"))
    )


def read_manifest(pdir):
    with open(os.path.join(pdir, "manifest.json"), encoding="utf-8") as f:
        return json.load(f)


def write_manifest(pdir, manifest):
    with open(os.path.join(pdir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)


def commits_of(git_log):
    """Non-merge commits of a `git log --name-status` dump as
    `(date, files_updated)`, in file order (newest first)."""
    commits = []
    date, files, merge, open_ = None, 0, False, False
    for line in git_log.splitlines():
        if line.startswith("commit "):
            if open_ and not merge:
                commits.append((date, files))
            date, files, merge, open_ = None, 0, False, True
        elif line.startswith("Date:"):
            date = line[len("Date:"):].strip()
        elif line.startswith("Merge:"):
            merge = True
        elif "\t" in line and not line.startswith(" "):
            files += 1
    if open_ and not merge:
        commits.append((date, files))
    return commits


class Project:
    """One on-disk project: its manifest, commits and DDL version texts."""

    def __init__(self, pdir):
        self.dir = pdir
        self.manifest = read_manifest(pdir)
        self.name = self.manifest["name"]
        with open(os.path.join(pdir, "git.log"), encoding="utf-8") as f:
            self.commits = commits_of(f.read())
        self.versions = []
        for v in self.manifest["versions"]:
            with open(os.path.join(pdir, "versions", v["file"]), encoding="utf-8") as f:
                self.versions.append((v["date"], f.read()))

    def events(self):
        """Every commit and DDL version as wire events (commits oldest first)."""
        evs = [{"kind": "commit", "date": d, "files": n} for d, n in reversed(self.commits)]
        evs += [{"kind": "ddl", "date": d, "ddl": text} for d, text in self.versions]
        return evs

    def last_month(self):
        """`(year, month)` of the latest event."""
        dates = [d for d, _ in self.commits] + [d for d, _ in self.versions]
        latest = max(dates)
        return int(latest[0:4]), int(latest[5:7])

    def lag_flags_fixed(self):
        """Whether no append can change the project's Section 7 lag-test
        flags. It holds when the first DDL version comes two or more calendar
        months after the first commit: the schema's cumulative share is then
        0 in the first month after creation, while the project's and the
        time's are not, so the project is never "always in advance" on any
        axis, whatever months are appended later."""
        def month(date):
            return int(date[0:4]) * 12 + int(date[5:7])
        first_commit = min(month(d) for d, _ in self.commits)
        first_ddl = min(month(d) for d, _ in self.versions)
        return first_ddl >= first_commit + 2

    def ingest_request(self):
        return {
            "cmd": "ingest",
            "project": self.name,
            "dialect": self.manifest["dialect"],
            "taxon": self.manifest.get("taxon"),
            "events": self.events(),
        }


def load_projects(corpus):
    return [Project(p) for p in project_dirs(corpus)]


def touch(pdir, serial):
    """Rewrite the last DDL version of a project with a fixed-width trailing
    comment. The width is constant, so the input size does not drift over
    repeated touches, and the serial makes every touch new content, so a
    re-touched project never reads a stale store entry."""
    manifest = read_manifest(pdir)
    path = os.path.join(pdir, "versions", manifest["versions"][-1]["file"])
    with open(path, encoding="utf-8") as f:
        text = f.read()
    marker = "\n-- perfbench touch "
    cut = text.find(marker)
    if cut >= 0:
        text = text[:cut]
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{text}{marker}{serial:010d}\n")


def append_events(pdir, events, serial):
    """Write appended wire events into a project directory: commits are
    prepended to `git.log` (newest first), DDL versions become new
    `versions/` files listed in the manifest."""
    manifest = read_manifest(pdir)
    commits = [e for e in events if e["kind"] == "commit"]
    ddls = [e for e in events if e["kind"] == "ddl"]
    if commits:
        blocks = []
        for i, e in enumerate(reversed(commits)):
            files = "".join(f"M\tbench/file_{j}.src\n" for j in range(e["files"]))
            blocks.append(
                f"commit {serial:08x}{i:032x}\n"
                "Author: Bench Writer <bench@example.org>\n"
                f"Date:   {e['date']}\n\n    append\n\n{files}\n"
            )
        with open(os.path.join(pdir, "git.log"), encoding="utf-8") as f:
            old = f.read()
        with open(os.path.join(pdir, "git.log"), "w", encoding="utf-8") as f:
            f.write("".join(blocks) + old)
    for e in ddls:
        name = f"{len(manifest['versions']) + 1:04d}.sql"
        with open(os.path.join(pdir, "versions", name), "w", encoding="utf-8") as f:
            f.write(e["ddl"])
        manifest["versions"].append({"file": name, "date": e["date"]})
    if ddls:
        write_manifest(pdir, manifest)
