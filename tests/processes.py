"""A guard for tests that check scans start no process."""

import multiprocessing.process
import os

from polarmap import oracle


def without_a_process(monkeypatch, chunk):
    """Give scans tasks of about `chunk` points; a process started all the
    same, by os.fork or by multiprocessing, raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("a scan started a process")

    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
