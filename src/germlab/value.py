"""The base of germlab's immutable value types."""


class Value:
    """Equal to an instance of its own class with equal fields; hashed once.

    A subclass checks its arguments in __init__ and ends it with
    self._freeze(name=value, ...), its fields in constructor order.  The hash
    of the field tuple is taken there, so the memo keys that hold values
    (orbital._cell_integral, sl2._digit_set, lcfunc._base_centre) hash each
    field once per object, not once per lookup.  Assignment raises
    AttributeError; functools.cached_property still works.
    """

    def _freeze(self, **fields) -> None:
        key = tuple(fields.values())
        self.__dict__.update(fields, _key=key, _hash=hash(key))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt by __init__, so a copy or unpickled value hashes afresh
        return type(self), self._key

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(vars(self), self._key))
        return f"{type(self).__name__}({fields})"
