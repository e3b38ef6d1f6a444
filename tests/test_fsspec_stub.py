"""pipelines/base._stabilize_fsspec_http_import installs a stub only when
the HTTP filesystem import fails with ``ImportError``; any other error
from either of its imports propagates."""

import builtins
import sys

import pytest

from apache_datasketches_go_ray.pipelines import base


def _failing_import(monkeypatch, errors: dict):
    """Make ``import <name>`` raise ``errors[name]``."""
    real = builtins.__import__

    def fake(name, *args, **kwargs):
        if name in errors:
            raise errors[name]
        return real(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", fake)


def test_probe_import_error_other_than_import_error_propagates(monkeypatch):
    _failing_import(monkeypatch, {
        "fsspec.implementations.http": RuntimeError("probe broke")})
    with pytest.raises(RuntimeError, match="probe broke"):
        base._stabilize_fsspec_http_import()


def test_parent_package_error_other_than_import_error_propagates(
        monkeypatch):
    # the stub goes into sys.modules before the parent package import
    monkeypatch.delitem(sys.modules, "fsspec.implementations.http",
                        raising=False)
    _failing_import(monkeypatch, {
        "fsspec.implementations.http": ImportError("no aiohttp"),
        "fsspec.implementations": RuntimeError("package broke")})
    with pytest.raises(RuntimeError, match="package broke"):
        base._stabilize_fsspec_http_import()
