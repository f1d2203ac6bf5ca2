"""The logical document tree: one coherent view over scattered content.

§3.2: "We first extended the remote console to produce a single, coherent
view of the Web document tree, comprised of portions that actually reside on
several different server nodes.  The remote console provides a file manager
interface containing methods for inserting, deleting, and renaming files or
directories."

This module is that view's data structure.  Every file node records *which
backend nodes currently hold a copy* as an immutable ``frozenset`` shared
with every other holder of the same set (the URL table's records included);
it changes only by replacement, through :meth:`DocTree.add_location` and
:meth:`DocTree.remove_location`.  Directory operations cascade to their
subtrees.  The management console (:mod:`repro.mgmt.console`) wraps this with
the operations that also propagate changes to brokers and the URL table.
"""

from __future__ import annotations

from typing import AbstractSet, Iterator, Optional

from .model import ContentItem

__all__ = ["DocTree", "FileNode", "DirectoryNode", "DocTreeError"]


class DocTreeError(Exception):
    """An invalid document-tree operation (missing path, duplicate, ...)."""


class FileNode:
    """A leaf: one content item plus the set of backends holding copies."""

    __slots__ = ("item", "locations")

    def __init__(self, item: ContentItem,
                 locations: Optional[AbstractSet[str]] = None):
        self.item = item
        # frozenset() of a frozenset is that same object: shared, not copied
        self.locations: frozenset[str] = frozenset(locations or ())

    @property
    def replicated(self) -> bool:
        return len(self.locations) > 1


class DirectoryNode:
    """An internal node mapping child names to nodes."""

    __slots__ = ("children",)

    def __init__(self):
        self.children: dict[str, "DirectoryNode | FileNode"] = {}


def _split(path: str) -> list[str]:
    if not path.startswith("/"):
        raise DocTreeError(f"path must be absolute: {path!r}")
    return [seg for seg in path.split("/") if seg]


class DocTree:
    """A mutable hierarchical namespace of directories and files."""

    def __init__(self):
        self.root = DirectoryNode()

    # -- navigation ---------------------------------------------------------
    def _descend(self, segments: list[str],
                 create: bool = False) -> DirectoryNode:
        node = self.root
        for seg in segments:
            child = node.children.get(seg)
            if child is None:
                if not create:
                    raise DocTreeError(f"no such directory: {'/'.join(segments)}")
                child = DirectoryNode()
                node.children[seg] = child
            if isinstance(child, FileNode):
                raise DocTreeError(f"{seg!r} is a file, not a directory")
            node = child
        return node

    def lookup(self, path: str) -> "DirectoryNode | FileNode":
        segs = _split(path)
        if not segs:
            return self.root
        parent = self._descend(segs[:-1])
        try:
            return parent.children[segs[-1]]
        except KeyError:
            raise DocTreeError(f"no such path: {path}") from None

    def file(self, path: str) -> FileNode:
        node = self.lookup(path)
        if not isinstance(node, FileNode):
            raise DocTreeError(f"{path} is a directory")
        return node

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except DocTreeError:
            return False

    # -- mutation -----------------------------------------------------------
    def insert(self, item: ContentItem,
               locations: Optional[AbstractSet[str]] = None) -> FileNode:
        """Insert a file at ``item.path``, creating parent directories."""
        segs = _split(item.path)
        if not segs:
            raise DocTreeError("cannot insert at the root")
        parent = self._descend(segs[:-1], create=True)
        if segs[-1] in parent.children:
            raise DocTreeError(f"path already exists: {item.path}")
        node = FileNode(item, locations)
        parent.children[segs[-1]] = node
        return node

    def add_location(self, path: str, *nodes: str) -> FileNode:
        """Record that ``nodes`` now hold a copy of the file at ``path``."""
        node = self.file(path)
        node.locations = node.locations.union(nodes)
        return node

    def remove_location(self, path: str, node: str) -> FileNode:
        """Record that ``node`` no longer holds a copy (a no-op if it
        held none)."""
        file_node = self.file(path)
        file_node.locations = file_node.locations - {node}
        return file_node

    def mkdir(self, path: str) -> DirectoryNode:
        segs = _split(path)
        return self._descend(segs, create=True)

    def delete(self, path: str) -> "DirectoryNode | FileNode":
        """Remove a file or an entire directory subtree."""
        segs = _split(path)
        if not segs:
            raise DocTreeError("cannot delete the root")
        parent = self._descend(segs[:-1])
        try:
            return parent.children.pop(segs[-1])
        except KeyError:
            raise DocTreeError(f"no such path: {path}") from None

    def rename(self, old: str, new: str) -> None:
        """Move a file/directory to a new absolute path.

        Renaming rewrites the ``path`` of every file item in the moved
        subtree so the logical names stay consistent.
        """
        if self.exists(new):
            raise DocTreeError(f"target already exists: {new}")
        node = self.lookup(old)
        self.delete(old)
        new_segs = _split(new)
        if not new_segs:
            raise DocTreeError("cannot rename to the root")
        parent = self._descend(new_segs[:-1], create=True)
        parent.children[new_segs[-1]] = node
        self._repath(node, new)

    def _repath(self, node: "DirectoryNode | FileNode", path: str) -> None:
        if isinstance(node, FileNode):
            node.item.path = path
            return
        for name, child in node.children.items():
            self._repath(child, f"{path}/{name}")

    # -- traversal ------------------------------------------------------------
    def walk(self, path: str = "/") -> Iterator[tuple[str, FileNode]]:
        """Yield every (path, FileNode) under ``path``, depth-first."""
        start = self.lookup(path)
        prefix = "" if path == "/" else path.rstrip("/")
        if isinstance(start, FileNode):
            yield path, start
            return
        stack: list[tuple[str, DirectoryNode]] = [(prefix, start)]
        while stack:
            base, dirnode = stack.pop()
            for name in sorted(dirnode.children):
                child = dirnode.children[name]
                child_path = f"{base}/{name}"
                if isinstance(child, FileNode):
                    yield child_path, child
                else:
                    stack.append((child_path, child))

    def list_dir(self, path: str = "/") -> list[str]:
        node = self.lookup(path)
        if isinstance(node, FileNode):
            raise DocTreeError(f"{path} is a file")
        return sorted(node.children)

    def files(self) -> list[str]:
        return [p for p, _node in self.walk()]

    def locations_of(self, path: str) -> set[str]:
        return set(self.file(path).locations)

    def render(self, path: str = "/", max_entries: int = 200) -> str:
        """A text rendering of the tree (what the GUI console displayed)."""
        lines = []
        entries = list(self.walk(path))
        for i, (file_path, node) in enumerate(entries):
            if i >= max_entries:
                lines.append(f"... ({len(entries) - max_entries} more)")
                break
            locs = ",".join(sorted(node.locations)) or "-"
            lines.append(f"{file_path}  [{node.item.ctype.value}, "
                         f"{node.item.size_bytes}B, @{locs}]")
        return "\n".join(lines)
