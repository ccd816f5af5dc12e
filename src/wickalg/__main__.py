"""``python -m wickalg``: the command-line front end."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
