"""``python -m dickesim`` runs the command-line front end."""

from .cli import run

if __name__ == "__main__":
    run()
