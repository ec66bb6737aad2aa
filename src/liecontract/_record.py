"""The base of the package's records.

A record's fields are its __init__'s parameters, in order; __init__ hands
its locals() to _set.  == compares the fields as one tuple between records
of one class, and a record is unhashable unless Frozen, which refuses
assignment and hashes that tuple.
"""


class Record:
    __hash__ = None
    _fields = ()

    def __init_subclass__(cls):
        if "__init__" in vars(cls):          # Frozen has none; a subclass may keep its base's
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def _set(self, args: dict):
        for f in self._fields:
            self.__dict__[f] = args[f]

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__
