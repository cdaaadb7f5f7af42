module calibre/bench

go 1.24

require calibre v0.0.0

replace calibre => ../
