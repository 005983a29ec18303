"""The statement finder of the opt-in ``linetrace`` plugin."""

from linetrace import statements

SOURCE = '''\
def f(x):
    """Skipped: a docstring."""
    if x:
        return (
            1
        )

    def g():
        """Skipped too."""

    return g


class C:
    y = 1

    def m(self):
        return self.y
'''


def test_statements_are_the_function_body_lines_without_docstrings():
    assert statements(SOURCE) == {3, 4, 8, 11, 18}
