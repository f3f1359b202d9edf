"""Coordination recipes on the replicated data tree.

Three classic ZooKeeper patterns -- distributed lock, double barrier,
group membership -- written purely against the public client API
(ephemeral/sequential znodes + watches), the way the ZooKeeper recipes
page prescribes and client libraries like Kazoo or Curator package
them.  ``worker_pool.py`` composes all three; primary-order broadcast,
sessions, watches and client retry all have to cooperate for a lock to
be a lock.

Ephemeral nodes belong to a session and vanish when the replicated
``("close_session", sid)`` operation commits, which is how a crashed
participant's lock and membership go away.
"""


class DistributedLock:
    """One contender for one lock path.

    The protocol, from the ZooKeeper recipes page:

    1. create an ephemeral sequential node under the lock root;
    2. list the root's children: if our node has the smallest sequence
       number, we hold the lock;
    3. otherwise watch the node *directly before ours* (watching the
       full child list would stampede) and re-check when it disappears.

    *client* is a :class:`repro.client.Client`, *session_id* an open
    session (``create_session`` committed) that owns our ephemeral node,
    and *root* the lock's root znode (it must exist).
    """

    def __init__(self, client, session_id, root="/lock"):
        self.client = client
        self.session_id = session_id
        self.root = root
        self.my_node = None
        self.holding = False
        self._acquire_callback = None

    def acquire(self, callback):
        """Start contending; *callback(lock)* fires once we hold it."""
        if self.my_node is not None:
            raise RuntimeError("already contending")
        self._acquire_callback = callback
        self.client.submit(
            ("create", self.root + "/c-", b"", "es", self.session_id),
            callback=self._on_created,
        )

    def release(self):
        """Give the lock up (delete our node)."""
        if self.my_node is None:
            return
        node, self.my_node = self.my_node, None
        self.holding = False
        self.client.submit(("delete", node, -1))

    def _on_created(self, ok, result, _zxid):
        if not ok or not isinstance(result, str):
            # Creation failed (e.g. session closed): report by never
            # acquiring; callers time out and retry at their level.
            return
        self.my_node = result
        self._check()

    def _check(self):
        if self.my_node is None:
            return  # released while checking
        self.client.submit(
            ("children", self.root), callback=self._on_children
        )

    def _on_children(self, ok, children, _zxid):
        if not ok or self.my_node is None or children is None:
            return
        my_name = self.my_node.rsplit("/", 1)[1]
        if my_name not in children:
            return  # our node vanished (session closed)
        ordered = sorted(children)
        index = ordered.index(my_name)
        if index == 0:
            self.holding = True
            callback, self._acquire_callback = (
                self._acquire_callback, None
            )
            if callback is not None:
                callback(self)
            return
        predecessor = "%s/%s" % (self.root, ordered[index - 1])
        # Watch only the predecessor; re-check when it goes away.  The
        # exists-read also closes the race where it vanished already.
        self.client.submit(
            ("exists", predecessor),
            callback=lambda ok, exists, z: (
                self._check() if ok and not exists else None
            ),
            watch=lambda event, path: self._check(),
        )


class DoubleBarrier:
    """One participant of an N-party barrier: *enter* creates an
    ephemeral node under the barrier root and watches the child list
    until it reaches the threshold."""

    def __init__(self, client, session_id, root, threshold, name):
        self.client = client
        self.session_id = session_id
        self.root = root
        self.threshold = threshold
        self.node = "%s/%s" % (root, name)
        self.entered = False
        self._enter_callback = None

    def enter(self, callback):
        """Join; *callback()* fires once *threshold* parties are in."""
        self._enter_callback = callback
        self.client.submit(
            ("create", self.node, b"", "e", self.session_id),
            callback=lambda ok, r, z: self._watch_until_full(),
        )

    def _watch_until_full(self):
        self.client.submit(
            ("children", self.root),
            callback=self._on_enter_children,
            watch=lambda event, path: self._watch_until_full(),
        )

    def _on_enter_children(self, ok, children, _zxid):
        if not ok or children is None or self.entered:
            return
        if len(children) >= self.threshold:
            self.entered = True
            callback, self._enter_callback = self._enter_callback, None
            if callback is not None:
                callback()


class GroupMembership:
    """Join a group and/or observe its membership: each member is an
    ephemeral node, and watchers re-arm a child watch on every change."""

    def __init__(self, client, root="/group"):
        self.client = client
        self.root = root
        self.members = []
        self._listener = None
        self._watching = False

    def join(self, session_id, name, metadata=b"", callback=None):
        """Register *name* as a live member under *session_id*."""
        self.client.submit(
            ("create", "%s/%s" % (self.root, name), metadata, "e",
             session_id),
            callback=lambda ok, result, z: (
                callback(ok and isinstance(result, str))
                if callback is not None else None
            ),
        )

    def watch(self, listener):
        """Track membership; *listener(members)* fires on every change
        (and once with the initial membership)."""
        self._listener = listener
        if not self._watching:
            self._watching = True
            self._refresh()

    def _refresh(self):
        self.client.submit(
            ("children", self.root),
            callback=self._on_children,
            watch=lambda event, path: self._refresh(),
        )

    def _on_children(self, ok, children, _zxid):
        if not ok or children is None:
            return
        if children != self.members:
            self.members = children
            if self._listener is not None:
                self._listener(list(children))
