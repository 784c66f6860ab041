from .cli import main  # python -m ieml runs the command line
main()
